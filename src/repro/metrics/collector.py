"""Per-delivery bookkeeping.

For every published message the collector registers one *expected delivery*
per subscriber, then records the first copy that arrives (later copies count
as duplicates). The paper's three metrics (§IV-C) derive from this table
plus the network's DATA-transmission counter:

* **delivery ratio** — delivered pairs / expected pairs (late or not);
* **QoS delivery ratio** — pairs delivered within their deadline / expected;
* **packets sent / subscriber** — DATA link transmissions / expected pairs.

The table is columnar, at three levels (``docs/PERFORMANCE.md``, "Memory
per expected pair"):

* **per message** — the msg id's index, topic, publish time, first pair
  row and roster;
* **per roster** — one interned subscriber → deadline map (subscriber
  tuple, position map, deadline column), shared by every message
  registered with an equal map, in the caller's map order;
* **per expected pair** — fixed-width columns: delivery time (NaN while
  undelivered), hops + 1 (0 for none), duplicates, gave-up.

A message's pairs are contiguous rows in roster order, so row order is
registration order. :class:`DeliveryOutcome` rows are read-only snapshots
built on demand; the counts and delay lists are NumPy passes over the
columns, with the same IEEE operations as a per-row Python pass.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.util.errors import SimulationError

_NAN = math.nan


class DeliveryOutcome(NamedTuple):
    """Snapshot of one expected (message, subscriber) delivery.

    Built from the table when asked for; writing a field raises, and a
    later delivery does not change a snapshot already taken.
    """

    msg_id: int
    topic: int
    subscriber: int
    publish_time: float
    deadline: float
    delivery_time: Optional[float]
    duplicates: int
    gave_up: bool
    hops: Optional[int]

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


class _Roster:
    """One interned subscriber → deadline map."""

    __slots__ = ("subscribers", "positions", "deadlines", "offset", "blank_times", "blank_ints")

    def __init__(self, items: Tuple[Tuple[int, float], ...], offset: int) -> None:
        self.subscribers = tuple(subscriber for subscriber, _ in items)
        self.positions = {s: i for i, s in enumerate(self.subscribers)}
        self.deadlines = tuple(deadline for _, deadline in items)
        #: First entry of this roster in the collector's deadline column.
        self.offset = offset
        #: The pair cells of one newly registered message.
        self.blank_times = array("d", [_NAN]) * len(items)
        self.blank_ints = array("i", [0]) * len(items)


class MetricsCollector:
    """The expected-delivery table of one run.

    Observers registered via :meth:`add_observer` are invoked on every
    *first* delivery of a (message, subscriber) pair — the hook the
    embedding API uses to run user callbacks.
    """

    def __init__(self) -> None:
        # Per message (one row per accepted expect call).
        self._index: Dict[int, int] = {}
        self._msg_ids: List[int] = []
        self._topics = array("q")
        self._publish_times = array("d")
        self._first_rows = array("q")
        self._roster_ids = array("i")
        #: msg id → its later message rows, for an id registered again
        #: with other subscribers (never, in a run that counts its ids).
        self._reexpected: Dict[int, List[int]] = {}
        # Per roster.
        self._rosters: List[_Roster] = []
        self._roster_by_items: Dict[Tuple[Tuple[int, float], ...], int] = {}
        self._roster_deadlines = array("d")
        # Per expected pair.
        self._delivery_times = array("d")
        self._hops = array("i")
        self._duplicates = array("i")
        self._gave_up = bytearray()
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
        """Register a published message and its per-subscriber deadlines.

        A rejected call registers nothing.
        """
        if not deadlines:
            raise SimulationError(f"message {msg_id} has no subscribers")
        reexpected = msg_id in self._index
        if reexpected:
            for subscriber in deadlines:
                if self._locate(msg_id, subscriber) is not None:
                    raise SimulationError(
                        f"duplicate expectation for {(msg_id, subscriber)}"
                    )
        items = tuple(deadlines.items())
        roster_id = self._roster_by_items.get(items)
        if roster_id is None:
            roster_id = self._intern(items)
        roster = self._rosters[roster_id]
        message = len(self._msg_ids)
        publish_time = float(publish_time)
        self._topics.append(topic)  # the one write that can raise (not an int)
        self._publish_times.append(publish_time)
        self._msg_ids.append(msg_id)
        self._first_rows.append(len(self._delivery_times))
        self._roster_ids.append(roster_id)
        if reexpected:
            self._reexpected.setdefault(msg_id, []).append(message)
        else:
            self._index[msg_id] = message
        self._delivery_times += roster.blank_times
        self._hops += roster.blank_ints
        self._duplicates += roster.blank_ints
        self._gave_up += bytes(len(roster.subscribers))

    def _intern(self, items: Tuple[Tuple[int, float], ...]) -> int:
        roster = _Roster(items, len(self._roster_deadlines))
        self._roster_deadlines += array("d", roster.deadlines)
        self._rosters.append(roster)
        self._roster_by_items[items] = len(self._rosters) - 1
        return len(self._rosters) - 1

    def _locate(self, msg_id: int, subscriber: int) -> Optional[Tuple[int, int]]:
        """``(message, row)`` of the pair, or None if it is not expected."""
        message = self._index.get(msg_id)
        if message is None:
            return None
        position = self._rosters[self._roster_ids[message]].positions.get(subscriber)
        if position is None:
            for message in self._reexpected.get(msg_id, ()):
                roster = self._rosters[self._roster_ids[message]]
                position = roster.positions.get(subscriber)
                if position is not None:
                    break
            else:
                return None
        return message, self._first_rows[message] + position

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
        message = self._index.get(msg_id)
        if message is None:
            return False
        position = self._rosters[self._roster_ids[message]].positions.get(subscriber)
        if position is None:
            located = self._locate(msg_id, subscriber)
            if located is None:
                return False
            row = located[1]
        else:
            row = self._first_rows[message] + position
        times = self._delivery_times
        if times[row] != times[row]:  # NaN: no copy yet
            times[row] = time
            self._hops[row] = 0 if hops is None else hops + 1
            for observer in self._observers:
                observer(msg_id, subscriber, time)
            return True
        self._duplicates[row] += 1
        return False

    def record_give_up(self, msg_id: int, subscriber: int) -> None:
        """Record that the routing strategy abandoned this delivery."""
        located = self._locate(msg_id, subscriber)
        if located is not None:
            row = located[1]
            if self._delivery_times[row] != self._delivery_times[row]:
                self._gave_up[row] = 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def messages_published(self) -> int:
        """Number of messages registered via :meth:`expect`."""
        return len(self._msg_ids)

    @property
    def expected_deliveries(self) -> int:
        """Total (message, subscriber) pairs registered."""
        return len(self._delivery_times)

    def outcomes(self) -> "OutcomeRows":
        """All outcome rows so far, in registration order, as a lazy
        read-only sequence: each row is built when it is read."""
        return OutcomeRows(self, len(self._delivery_times))

    def outcome(self, msg_id: int, subscriber: int) -> DeliveryOutcome:
        """A snapshot of one specific pair (``KeyError`` if not expected)."""
        located = self._locate(msg_id, subscriber)
        if located is None:
            raise KeyError((msg_id, subscriber))
        return self._snapshot(*located)

    def published(self, msg_id: int) -> Tuple[int, float]:
        """``(topic, publish_time)`` of a registered message."""
        message = self._index[msg_id]
        return self._topics[message], self._publish_times[message]

    def _snapshot(self, message: int, row: int) -> DeliveryOutcome:
        roster = self._rosters[self._roster_ids[message]]
        position = row - self._first_rows[message]
        time = self._delivery_times[row]
        hops = self._hops[row]
        return DeliveryOutcome(
            self._msg_ids[message],
            self._topics[message],
            roster.subscribers[position],
            self._publish_times[message],
            roster.deadlines[position],
            None if time != time else time,
            self._duplicates[row],
            bool(self._gave_up[row]),
            hops - 1 if hops else None,
        )

    def delivered_count(self) -> int:
        """Pairs with at least one delivered copy."""
        times = np.frombuffer(self._delivery_times, dtype=np.float64)
        return len(times) - int(np.count_nonzero(np.isnan(times)))

    def on_time_count(self) -> int:
        """Pairs delivered within their deadline."""
        delay, deadline = self._delays_and_deadlines()
        return int(np.count_nonzero(delay <= deadline))

    def duplicate_count(self) -> int:
        """Total redundant copies received across all pairs."""
        return int(np.frombuffer(self._duplicates, dtype=np.intc).sum(dtype=np.int64))

    def late_normalized_delays(self) -> List[float]:
        """``delay / deadline`` of pairs delivered *after* their deadline.

        This is exactly the population Figure 7 plots (values start at 1).
        A zero deadline (a co-located subscriber) has no ratio and is left
        out; a deadline so small that the ratio overflows reads ``inf``.
        """
        delay, deadline = self._delays_and_deadlines()
        late = (delay > deadline) & (deadline > 0)
        with np.errstate(over="ignore"):
            return (delay[late] / deadline[late]).tolist()

    def delays(self) -> List[float]:
        """End-to-end delays of all delivered pairs."""
        delay = self._pair_delays(self._roster_sizes())
        return delay[~np.isnan(delay)].tolist()

    def _pair_delays(self, sizes: np.ndarray) -> np.ndarray:
        """Per row ``delivery_time - publish_time`` (NaN while undelivered);
        *sizes* are the pairs per message."""
        times = np.frombuffer(self._delivery_times, dtype=np.float64)
        return times - np.repeat(np.frombuffer(self._publish_times, dtype=np.float64), sizes)

    def _delays_and_deadlines(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row delay and deadline, in row order."""
        sizes = self._roster_sizes()
        roster_ids = np.frombuffer(self._roster_ids, dtype=np.intc)
        offsets = np.array([r.offset for r in self._rosters], dtype=np.int64)
        first_rows = np.frombuffer(self._first_rows, dtype=np.int64)
        # Row r of message m reads deadline entry offset(m) + (r - first(m)).
        start = np.repeat(offsets[roster_ids] - first_rows, sizes)
        start += np.arange(len(start), dtype=np.int64)
        deadlines = np.frombuffer(self._roster_deadlines, dtype=np.float64)
        return self._pair_delays(sizes), deadlines[start]

    def _roster_sizes(self) -> np.ndarray:
        """Pairs per message."""
        sizes = np.array([len(r.subscribers) for r in self._rosters], dtype=np.int64)
        return sizes[np.frombuffer(self._roster_ids, dtype=np.intc)]


class OutcomeRows(Sequence):
    """The first *length* rows of a collector's table, read lazily.

    Indexing or iterating builds one :class:`DeliveryOutcome` snapshot per
    row read; nothing holds the rows a caller has moved past.
    """

    __slots__ = ("_collector", "_length")

    def __init__(self, collector: MetricsCollector, length: int) -> None:
        self._collector = collector
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> DeliveryOutcome:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("outcome row out of range")
        collector = self._collector
        return collector._snapshot(bisect_right(collector._first_rows, index) - 1, index)

    def __iter__(self) -> Iterator[DeliveryOutcome]:
        collector = self._collector
        snapshot = collector._snapshot
        rosters = collector._rosters
        roster_ids = collector._roster_ids
        length = self._length
        for message, first in enumerate(collector._first_rows):
            if first >= length:
                return
            end = min(first + len(rosters[roster_ids[message]].subscribers), length)
            for row in range(first, end):
                yield snapshot(message, row)
