"""Validation hardening of the live runtime's configuration surface."""

from __future__ import annotations

import pytest

from repro.live.config import LiveConfig
from repro.util.errors import ConfigurationError


class TestTimeouts:
    def test_defaults_are_valid(self):
        config = LiveConfig()
        assert config.host == "127.0.0.1"

    @pytest.mark.parametrize("value", [0.0, -1.0, -0.001])
    def test_negative_connect_timeout_rejected(self, value):
        with pytest.raises(ConfigurationError, match="connect_timeout"):
            LiveConfig(connect_timeout=value)

    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_negative_settle_timeout_rejected(self, value):
        with pytest.raises(ConfigurationError, match="settle_timeout"):
            LiveConfig(settle_timeout=value)


class TestFrameLimit:
    @pytest.mark.parametrize("value", [0, -1, -1024])
    def test_zero_or_negative_frame_limit_rejected(self, value):
        with pytest.raises(ConfigurationError, match="max_frame_bytes"):
            LiveConfig(max_frame_bytes=value)

    def test_non_int_frame_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="max_frame_bytes"):
            LiveConfig(max_frame_bytes=1024.5)


class TestHost:
    def test_empty_host_rejected(self):
        with pytest.raises(ConfigurationError, match="host"):
            LiveConfig(host="")

    def test_non_string_host_rejected(self):
        with pytest.raises(ConfigurationError, match="host"):
            LiveConfig(host=127)


class TestPeers:
    def test_distinct_peer_addresses_accepted(self):
        config = LiveConfig(
            peers={0: ("127.0.0.1", 9001), 1: ("127.0.0.1", 9002)}
        )
        assert config.address_of(0) == ("127.0.0.1", 9001)
        assert config.address_of(2) is None

    def test_duplicate_peer_addresses_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate peer address"):
            LiveConfig(peers={0: ("127.0.0.1", 9001), 1: ("127.0.0.1", 9001)})

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_out_of_range_port_rejected(self, port):
        with pytest.raises(ConfigurationError, match="port"):
            LiveConfig(peers={0: ("127.0.0.1", port)})

    def test_empty_peer_host_rejected(self):
        with pytest.raises(ConfigurationError, match="host"):
            LiveConfig(peers={0: ("", 9001)})

    def test_non_tuple_address_rejected(self):
        with pytest.raises(ConfigurationError, match="pair"):
            LiveConfig(peers={0: "127.0.0.1:9001"})

    def test_non_int_node_rejected(self):
        with pytest.raises(ConfigurationError, match="peers key"):
            LiveConfig(peers={"0": ("127.0.0.1", 9001)})
