"""The dict-of-objects delivery collector, kept as the oracle of the table.

This is the collector :class:`repro.metrics.collector.MetricsCollector`
replaced: one mutable :class:`DeliveryOutcome` per expected
(message, subscriber) pair under a ``(msg_id, subscriber)`` key, every
query a Python pass over the rows in insertion order. The columnar table
must reproduce its return values, observer calls, rows, counts and delay
lists exactly (``tests/metrics/test_collector_equivalence.py``), with one
deliberate difference: a rejected :meth:`MetricsCollector.expect` here may
already have registered some pairs (the table validates before it writes).

The body below is the replaced module, unchanged. Its original docstring:

Per-delivery bookkeeping.

For every published message the collector registers one *expected delivery*
per subscriber, then records the first copy that arrives (later copies count
as duplicates). The paper's three metrics (§IV-C) derive from this table
plus the network's DATA-transmission counter:

* **delivery ratio** — delivered pairs / expected pairs (late or not);
* **QoS delivery ratio** — pairs delivered within their deadline / expected;
* **packets sent / subscriber** — DATA link transmissions / expected pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.util.errors import SimulationError


@dataclass
class DeliveryOutcome:
    """Mutable state of one expected (message, subscriber) delivery."""

    msg_id: int
    topic: int
    subscriber: int
    publish_time: float
    deadline: float
    delivery_time: Optional[float] = None
    duplicates: int = 0
    gave_up: bool = False
    hops: Optional[int] = None

    @property
    def delivered(self) -> bool:
        """Whether at least one copy arrived."""
        return self.delivery_time is not None

    @property
    def delay(self) -> Optional[float]:
        """End-to-end delay of the first copy, or ``None``."""
        if self.delivery_time is None:
            return None
        return self.delivery_time - self.publish_time

    @property
    def on_time(self) -> bool:
        """Whether the first copy met the delay requirement."""
        delay = self.delay
        return delay is not None and delay <= self.deadline


class MetricsCollector:
    """Accumulates :class:`DeliveryOutcome` rows during a simulation run.

    Observers registered via :meth:`add_observer` are invoked on every
    *first* delivery of a (message, subscriber) pair — the hook the
    embedding API uses to run user callbacks.
    """

    def __init__(self) -> None:
        self._outcomes: Dict[Tuple[int, int], DeliveryOutcome] = {}
        self._messages = 0
        self._observers: List = []

    def add_observer(self, observer) -> None:
        """Register ``observer(msg_id, subscriber, time)`` for first copies."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def expect(
        self,
        msg_id: int,
        topic: int,
        publish_time: float,
        deadlines: Mapping[int, float],
    ) -> None:
        """Register a published message and its per-subscriber deadlines."""
        if not deadlines:
            raise SimulationError(f"message {msg_id} has no subscribers")
        self._messages += 1
        for subscriber, deadline in deadlines.items():
            key = (msg_id, subscriber)
            if key in self._outcomes:
                raise SimulationError(f"duplicate expectation for {key}")
            self._outcomes[key] = DeliveryOutcome(
                msg_id=msg_id,
                topic=topic,
                subscriber=subscriber,
                publish_time=publish_time,
                deadline=deadline,
            )

    def record_delivery(
        self,
        msg_id: int,
        subscriber: int,
        time: float,
        hops: Optional[int] = None,
    ) -> bool:
        """Record an arriving copy. Returns True if it was the first copy.

        ``hops`` is the number of overlay transmissions the copy took
        (the length of its routing path); it feeds the route-stretch
        analysis. Copies for unknown pairs (e.g. frames still draining
        after the measurement window closed) are ignored.
        """
        outcome = self._outcomes.get((msg_id, subscriber))
        if outcome is None:
            return False
        if outcome.delivery_time is None:
            outcome.delivery_time = time
            outcome.hops = hops
            for observer in self._observers:
                observer(msg_id, subscriber, time)
            return True
        outcome.duplicates += 1
        return False

    def record_give_up(self, msg_id: int, subscriber: int) -> None:
        """Record that the routing strategy abandoned this delivery."""
        outcome = self._outcomes.get((msg_id, subscriber))
        if outcome is not None and not outcome.delivered:
            outcome.gave_up = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def messages_published(self) -> int:
        """Number of messages registered via :meth:`expect`."""
        return self._messages

    @property
    def expected_deliveries(self) -> int:
        """Total (message, subscriber) pairs registered."""
        return len(self._outcomes)

    def outcomes(self) -> List[DeliveryOutcome]:
        """All outcome rows (insertion order)."""
        return list(self._outcomes.values())

    def outcome(self, msg_id: int, subscriber: int) -> DeliveryOutcome:
        """The outcome row of one specific pair."""
        return self._outcomes[(msg_id, subscriber)]

    def delivered_count(self) -> int:
        """Pairs with at least one delivered copy."""
        return sum(1 for o in self._outcomes.values() if o.delivered)

    def on_time_count(self) -> int:
        """Pairs delivered within their deadline."""
        return sum(1 for o in self._outcomes.values() if o.on_time)

    def duplicate_count(self) -> int:
        """Total redundant copies received across all pairs."""
        return sum(o.duplicates for o in self._outcomes.values())

    def late_normalized_delays(self) -> List[float]:
        """``delay / deadline`` of pairs delivered *after* their deadline.

        This is exactly the population Figure 7 plots (values start at 1).
        """
        result = []
        for outcome in self._outcomes.values():
            delay = outcome.delay
            if delay is not None and delay > outcome.deadline > 0:
                result.append(delay / outcome.deadline)
        return result

    def delays(self) -> List[float]:
        """End-to-end delays of all delivered pairs."""
        return [o.delay for o in self._outcomes.values() if o.delay is not None]
