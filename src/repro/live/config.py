"""Validated configuration for the live (asyncio TCP) runtime.

Construction-time validation follows the repo-wide convention
(:mod:`repro.util.validation`): reject nonsensical values with a
:class:`~repro.util.errors.ConfigurationError` naming the offending field,
instead of failing obscurely mid-run — a negative socket timeout, a
zero-length frame limit, or two brokers bound to the same address are
configuration bugs, not runtime conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.util.errors import ConfigurationError
from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
    require_type,
)


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of one live deployment.

    Attributes
    ----------
    host:
        Interface the per-broker servers bind to (loopback by default;
        the conformance suite and CI smoke run entirely on it).
    peers:
        Optional explicit listen addresses, ``node -> (host, port)``.
        Empty (the default) lets every broker bind an ephemeral port —
        the right choice for single-process loopback runs. Explicit
        addresses must be pairwise distinct.
    connect_timeout:
        Seconds a dialing broker waits for a peer's server socket.
    settle_timeout:
        Seconds the runtime waits, after the scripted scenario ends, for
        the run to settle (every copy ACKed or failed, none held back or
        in transit) before declaring it wedged.
    max_frame_bytes:
        Upper bound on one encoded frame; oversized frames are rejected
        at both ends (a malformed length prefix must never cause an
        unbounded read).
    """

    host: str = "127.0.0.1"
    peers: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    connect_timeout: float = 5.0
    settle_timeout: float = 5.0
    max_frame_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        require_type(self.host, str, "host")
        require(bool(self.host), "host must be a non-empty string")
        require_positive(self.connect_timeout, "connect_timeout")
        require_positive(self.settle_timeout, "settle_timeout")
        require_type(self.max_frame_bytes, int, "max_frame_bytes")
        require_positive(self.max_frame_bytes, "max_frame_bytes")
        seen: Dict[Tuple[str, int], int] = {}
        for node, address in self.peers.items():
            require_type(node, int, "peers key")
            require(
                isinstance(address, tuple) and len(address) == 2,
                f"peers[{node}] must be a (host, port) pair, got {address!r}",
            )
            peer_host, peer_port = address
            require_type(peer_host, str, f"peers[{node}] host")
            require(bool(peer_host), f"peers[{node}] host must be non-empty")
            require_type(peer_port, int, f"peers[{node}] port")
            require_in_range(peer_port, 1, 65535, f"peers[{node}] port")
            if address in seen:
                raise ConfigurationError(
                    f"duplicate peer address {peer_host}:{peer_port} "
                    f"(nodes {seen[address]} and {node})"
                )
            seen[address] = node

    def address_of(self, node: int) -> Optional[Tuple[str, int]]:
        """The explicit listen address of *node*, if one was configured."""
        return self.peers.get(node)
