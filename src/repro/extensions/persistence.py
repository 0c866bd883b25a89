"""Persistency mode: never drop, store and retry (paper §III).

The core DCRD algorithm guarantees delivery only while a failure-free path
exists. §III sketches a persistency mode for the remaining case: a broker
that has exhausted every option *persists* the packet and retries once the
(transient, per-second) failures have moved on. The paper explicitly does
not evaluate it — "this mode incurs a large overhead" — which makes it a
natural extension target: :class:`PersistentDcrdStrategy` implements it and
the ablation benchmark quantifies that overhead.

Design:

* :meth:`DcrdStrategy.abandon` is overridden: instead of recording a
  give-up, the broker appends the destination to its
  :class:`PersistentStore` and schedules a retry after ``retry_backoff``
  seconds (longer than one failure epoch, so the world has re-rolled);
* the retry re-enters Algorithm 2 at the storing broker with a *fresh*
  routing path — earlier exploration state is deliberately discarded since
  the failures that caused it have likely cleared;
* retries repeat up to ``max_retries`` per stored packet; only after the
  last one fails is the destination finally given up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro import probes as _probes
from repro.core.forwarding import DcrdStrategy
from repro.pubsub.messages import PacketFrame
from repro.routing.base import RuntimeContext
from repro.util.validation import require, require_positive


@dataclass
class StoredPacket:
    """One persisted (packet, destination) awaiting retry."""

    node: int
    subscriber: int
    frame: PacketFrame
    retries_left: int


@dataclass
class PersistentStore:
    """Per-run bookkeeping of the persistency mode."""

    stored: int = 0
    recovered: int = 0
    exhausted: int = 0
    pending: Dict[Tuple[int, int, int], StoredPacket] = field(default_factory=dict)

    def key(self, item: StoredPacket) -> Tuple[int, int, int]:
        """Identity of a stored entry: (broker, msg, subscriber)."""
        return (item.node, item.frame.msg_id, item.subscriber)


class PersistentDcrdStrategy(DcrdStrategy):
    """DCRD plus the §III persistency mode."""

    name = "DCRD+persist"

    def __init__(
        self,
        ctx: RuntimeContext,
        retry_backoff: float = 1.5,
        max_retries: int = 10,
    ) -> None:
        require_positive(retry_backoff, "retry_backoff")
        require(max_retries >= 1, "max_retries must be >= 1")
        super().__init__(ctx)
        self.retry_backoff = retry_backoff
        self.max_retries = max_retries
        self.store = PersistentStore()
        self._retired: set = set()

    def copy_span(self, timeout: float, delay: float) -> float:
        """None proven: a stored copy waits in the custody store and then
        re-enters Algorithm 2 with a clean routing path, which the
        bound of :meth:`DcrdStrategy.copy_span` does not cover."""
        return math.inf

    def abandon(self, node: int, frame: PacketFrame, subscriber: int) -> None:
        """Persist instead of dropping; schedule the first retry."""
        if self.ctx.metrics.outcome(frame.msg_id, subscriber).delivered:
            # Another branch already delivered; nothing worth persisting.
            return
        item = StoredPacket(
            node=node,
            subscriber=subscriber,
            frame=frame,
            retries_left=self.max_retries,
        )
        key = self.store.key(item)
        if key in self.store.pending or key in self._retired:
            # Already persisted (or finally given up) by an earlier branch.
            return
        self.store.stored += 1
        self.store.pending[key] = item
        probe = _probes.on_custody
        if probe is not None:
            # The pair is in explicit custody, not leaked: the sanitizer's
            # end-of-run conservation check must account it as such when
            # the run ends before the retries are exhausted, and the tracer
            # records the custody hand-off for journey reconstruction.
            probe(self.ctx.sim._now, node, frame, subscriber, "stored", -1)
        self.ctx.sim.schedule(self.retry_backoff, self._retry, key)

    def _retry(self, key: Tuple[int, int, int]) -> None:
        item = self.store.pending.get(key)
        if item is None:
            return
        outcome = self.ctx.metrics.outcome(item.frame.msg_id, item.subscriber)
        if outcome.delivered:
            # Another copy made it in the meantime; retire the entry.
            del self.store.pending[key]
            self.store.recovered += 1
            return
        if item.retries_left <= 0:
            del self.store.pending[key]
            self._retired.add(key)
            self.store.exhausted += 1
            super().abandon(item.node, item.frame, item.subscriber)
            return
        item.retries_left -= 1
        # Re-enter Algorithm 2 from the storing broker with a clean slate:
        # fresh routing path, single destination, new copy.
        fresh = PacketFrame.fresh(
            msg_id=item.frame.msg_id,
            transfer_id=next(self.ctx.transfer_ids),
            topic=item.frame.topic,
            origin=item.frame.origin,
            publish_time=item.frame.publish_time,
            destinations=frozenset({item.subscriber}),
            routing_path=(),
            ordering=self.ctx.ordering,
        )
        probe = _probes.on_custody
        if probe is not None:
            # Link the fresh copy to the stored frame so the tracer can
            # walk a redelivered pair's journey back through this broker.
            probe(
                self.ctx.sim._now,
                item.node,
                item.frame,
                item.subscriber,
                "redelivered",
                fresh.transfer_id,
            )
        self._start_task(item.node, fresh)
        self.ctx.sim.schedule(self.retry_backoff, self._retry, key)

    @property
    def still_pending(self) -> int:
        """Entries persisted and not yet delivered or exhausted."""
        return len(self.store.pending)
