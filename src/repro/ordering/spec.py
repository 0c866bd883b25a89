"""Ordering-level specifications: what guarantee, on which topics.

The delivery-semantics layer is opt-in and per-topic: an ordering spec
names one *level* (:data:`LEVELS`) and, optionally, the topics it covers
(``LEVEL[:topic,...]`` — no topic list means every topic). The spec is
the only user-facing syntax; it travels as a plain string through
:class:`~repro.experiments.config.ExperimentConfig`, the CLI
(``--ordering``), and :class:`~repro.live.scenarios.Scenario` JSON, and
is parsed exactly once into an :class:`OrderingSpec`.

Validation is eager (the ``util/validation`` convention): an unknown
level raises :class:`~repro.util.errors.ConfigurationError` *listing the
valid levels* at config-build time, not hours into a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.util.errors import ConfigurationError

#: The delivery guarantees the ordering layer implements, weakest first.
#:
#: ``fifo``   — per-publisher order: two messages published on one topic by
#:             one publisher deliver in publish order at every subscriber.
#: ``causal`` — causal order via dynamic vector clocks: a message never
#:             delivers before a message it causally depends on (per-stream
#:             entries, join/leave baseline adoption under churn).
#: ``total``  — total order: every subscriber of a topic delivers the same
#:             message prefix, agreed through hybrid-clock keys that follow
#:             publish time and a hold-back window each subscriber
#:             measures for itself (see docs/ORDERING.md).
LEVELS: Tuple[str, ...] = ("fifo", "causal", "total")

#: Hold-back watchdog: a frame stuck behind a gap for longer than this is
#: stall-released (probe family ``order_stall``) so churned-away
#: publishers can never wedge a subscriber. It is also the ceiling of the
#: ``total`` level's agreement window: no frame is held longer than this.
DEFAULT_STALL_TIMEOUT = 2.0

#: Conservative scripted-scenario timings, shared verbatim by the sim,
#: single-process live, and multi-process substrates so the three-way
#: conformance suite runs the identical ordering configuration. The
#: scenario worlds retransmit through multi-second ACK timeouts, so the
#: total-order window is pinned — measured from the publish instant, like
#: every total-order window — comfortably past the worst recovery latency
#: instead of being estimated from wall-clock transits that jitter.
SCENARIO_STALL_TIMEOUT = 4.0
SCENARIO_TOTAL_HOLD = 1.0


@dataclass(frozen=True)
class OrderingSpec:
    """One parsed ordering directive: a level and its topic scope."""

    level: str
    #: Topics the guarantee covers; ``None`` covers every topic.
    topics: Optional[FrozenSet[int]] = None

    def covers(self, topic: int) -> bool:
        """Whether *topic* is under this spec's guarantee."""
        return self.topics is None or topic in self.topics

    def describe(self) -> str:
        """The canonical ``LEVEL[:topic,...]`` string form."""
        if self.topics is None:
            return self.level
        return f"{self.level}:{','.join(str(t) for t in sorted(self.topics))}"


def parse_ordering(text: str) -> OrderingSpec:
    """Parse ``LEVEL[:topic,...]`` into an :class:`OrderingSpec`.

    Raises :class:`ConfigurationError` — naming the valid levels — on an
    unknown level, and on empty or non-integer topic lists.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(
            f"ordering spec must be 'LEVEL[:topic,...]' with LEVEL one of "
            f"{', '.join(LEVELS)}; got {text!r}"
        )
    level, sep, topic_part = text.strip().partition(":")
    level = level.strip()
    if level not in LEVELS:
        raise ConfigurationError(
            f"unknown ordering level {level!r}; valid levels: "
            f"{', '.join(LEVELS)}"
        )
    if not sep:
        return OrderingSpec(level=level)
    entries = [entry.strip() for entry in topic_part.split(",")]
    if not any(entries) or any(not entry for entry in entries):
        raise ConfigurationError(
            f"ordering spec {text!r} has an empty topic list; use "
            f"'{level}' alone to cover every topic"
        )
    topics = []
    for entry in entries:
        try:
            topics.append(int(entry))
        except ValueError:
            raise ConfigurationError(
                f"ordering topic {entry!r} in {text!r} is not an integer"
            ) from None
    return OrderingSpec(level=level, topics=frozenset(topics))
