"""Tests for the strategy base: protocol params and shared helpers."""

import pytest

from repro.routing.base import ProtocolParams, RoutingStrategy
from repro.util.errors import ConfigurationError
from tests.conftest import build_ctx, make_topology


class TestProtocolParams:
    def test_defaults_match_paper(self):
        params = ProtocolParams()
        assert params.m == 1
        assert params.ack_timeout_factor == 2.0

    def test_ack_timeout_formula(self):
        params = ProtocolParams(ack_timeout_factor=2.0, ack_timeout_slack=0.001)
        assert params.ack_timeout(0.010) == pytest.approx(0.021)

    def test_invalid_m_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(m=0)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(ack_timeout_factor=0.0)

    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(ack_timeout_slack=-0.1)

    def test_frozen(self):
        params = ProtocolParams()
        with pytest.raises(Exception):
            params.m = 3


class _MinimalStrategy(RoutingStrategy):
    name = "minimal"

    def publish(self, spec, msg_id):  # pragma: no cover
        raise NotImplementedError

    def handle_data(self, node, sender, frame):  # pragma: no cover
        raise NotImplementedError


class TestGiveUp:
    def test_give_up_marks_every_destination(self):
        topo = make_topology([(0, 1, 0.010)])
        ctx = build_ctx(topo)
        strategy = _MinimalStrategy(ctx)
        ctx.metrics.expect(1, 0, 0.0, {0: 1.0, 1: 1.0})
        strategy.give_up(1, frozenset({0, 1}))
        assert ctx.metrics.outcome(1, 0).gave_up
        assert ctx.metrics.outcome(1, 1).gave_up
        assert strategy.abandoned == 2

    def test_default_hooks_are_noops(self):
        topo = make_topology([(0, 1, 0.010)])
        ctx = build_ctx(topo)
        strategy = _MinimalStrategy(ctx)
        strategy.setup()
        strategy.on_monitor_refresh()
        strategy.handle_ack(0, 1, object())
