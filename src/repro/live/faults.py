"""Scripted, deterministic faults at the transport seam.

Both substrates take faults through one seam, a drop predicate
``fault_filter(src, dst, kind, frame) -> bool`` (the
:data:`~repro.overlay.links.FaultFilter` alias) installed with
:meth:`~repro.overlay.links.OverlayNetwork.install_fault_filter` — the
socket transport is a subclass of the simulated network and inherits the
member. It is consulted once per send, after counting the send; ``True``
drops the frame as an injected loss.

:func:`link_filter` builds that predicate from scripted :class:`DropRule`
objects — per-direction, per-kind drops with no randomness at all: ``drop
all DATA on 1->3``, ``drop the first 2 ACKs on 2->0``. Built from the same
rules, the sim and live predicates drop the same frames of the same send
sequence, so the differential conformance suite faces both substrates
with one adversary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.overlay.links import FaultFilter, FrameKind
from repro.util.validation import require

#: Frame-kind values a rule matches on (`None` in a rule = both).
DATA = FrameKind.DATA.value
ACK = FrameKind.ACK.value


@dataclass
class DropRule:
    """Drop frames matching a direction/kind pattern, deterministically.

    ``src``/``dst``/``kind`` are match patterns (``None`` = wildcard);
    ``count`` bounds how many matching frames are dropped (``None`` =
    all). Rules are stateful — construct a fresh instance per run.

    A count-bounded rule must name its ``src``: every partition of a
    fleet rebuilds its own rules, so only a rule whose matching frames
    all leave one process spends its budget once per run.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    kind: Optional[str] = None
    count: Optional[int] = None
    dropped: int = 0

    def __post_init__(self) -> None:
        require(
            self.kind in (None, DATA, ACK),
            f"DropRule kind must be None, {DATA!r} or {ACK!r}, got {self.kind!r}",
        )
        if self.count is not None:
            require(self.count >= 1, f"DropRule count must be >= 1, got {self.count}")
            require(
                self.src is not None,
                "a count-bounded DropRule must name its src (each sending "
                "process would otherwise spend the budget on its own)",
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe spec of this rule (the drop budget state is excluded).

        Serialization exists so a scripted scenario's adversary can travel
        with its config — every broker process of a multi-process cluster
        rebuilds the identical rules from the same serialized form, and
        the sim side adapts the same dicts through :func:`link_filter`.
        """
        return {"src": self.src, "dst": self.dst, "kind": self.kind, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DropRule":
        """Rebuild a fresh (zero-state) rule from :meth:`to_dict` output."""
        unknown = set(data) - {"src", "dst", "kind", "count"}
        require(not unknown, f"unknown DropRule field(s): {sorted(unknown)}")
        return cls(
            src=data.get("src"),
            dst=data.get("dst"),
            kind=data.get("kind"),
            count=data.get("count"),
        )

    def matches(self, src: int, dst: int, kind: str) -> bool:
        """Whether this rule wants to drop a (src, dst, kind) frame now."""
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.kind is not None and kind != self.kind:
            return False
        return self.count is None or self.dropped < self.count

    def consume(self) -> None:
        """Record one drop against the rule's budget."""
        self.dropped += 1


def dead_link_rules(u: int, v: int) -> Tuple[DropRule, DropRule]:
    """Rules dropping every frame (both kinds, both directions) on ``u—v``."""
    return (DropRule(src=u, dst=v), DropRule(src=v, dst=u))


def ack_loss_rules(src: int, dst: int) -> Tuple[DropRule]:
    """Rules dropping every ACK sent on the ``src -> dst`` direction."""
    return (DropRule(src=src, dst=dst, kind=ACK),)


def link_filter(rules: Sequence[DropRule]) -> FaultFilter:
    """The drop predicate of scripted *rules*, for either substrate.

    The first rule matching a frame consumes one unit of its budget and
    drops it. Each substrate takes its own predicate built from its own
    fresh rules.
    """
    rule_list = tuple(rules)

    def fault_filter(src: int, dst: int, kind: FrameKind, frame: Any) -> bool:
        label = kind.value
        for rule in rule_list:
            if rule.matches(src, dst, label):
                rule.consume()
                return True
        return False

    return fault_filter
