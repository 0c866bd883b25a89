"""The per-run ordering plan: stamping state plus the pipeline registry.

One :class:`OrderingPlan` exists per run (or per partition process in
the multi-process deployment). It owns everything the guarantee needs
that is *not* per-node:

* the **stamper** — :meth:`OrderingPlan.stamp`, which
  :meth:`PacketFrame.fresh <repro.pubsub.messages.PacketFrame.fresh>`
  calls with the run's plan (``ctx.ordering``) to allocate an
  :class:`~repro.ordering.tags.OrderTag` for every freshly published
  frame (idempotent per ``msg_id``, so the persistency extension's
  custody *redelivery* — which re-freshens the same message — reuses the
  original tag). It is the plan's from construction on: two ordered runs
  in one process never stamp each other's frames;
* per-publication-stream sequence counters, per-node observed vector
  clocks (``causal``), and per-node hybrid logical clocks (``total``:
  integer microseconds that follow the publish time and never run
  backwards, so a key says *when* as well as *after what*);
* the registry of per-broker pipelines it has handed out, which gives
  the run-level :meth:`flush` / :meth:`held_count` /
  :meth:`perf_counters` surface the runner, live runtime, and cluster
  coordinator consume.

Tags ride on the frames themselves (and on the wire in live mode), so
cross-process deployments need no shared stamping state: only the
partition hosting a publisher ever creates fresh frames, so only its
plan stamps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ordering.pipeline import PIPELINES, DeliveryPipeline
from repro.ordering.spec import (
    DEFAULT_STALL_TIMEOUT,
    SCENARIO_STALL_TIMEOUT,
    SCENARIO_TOTAL_HOLD,
    OrderingSpec,
    parse_ordering,
)
from repro.ordering.tags import OrderTag, Stream
from repro.pubsub.messages import PacketFrame


class OrderingPlan:
    """Run-scoped ordering state for one parsed spec.

    *total_hold* is the ``total`` level's agreement window, counted from
    a frame's key time (its publish instant). ``None`` — the default —
    lets every subscriber measure its own from the transits it sees;
    either way the window never exceeds *stall_timeout*.
    """

    def __init__(
        self,
        spec: OrderingSpec,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        total_hold: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.level = spec.level
        self.stall_timeout = stall_timeout
        self.total_hold = total_hold
        # Next publish sequence per (topic, origin) publication stream.
        self._seqs: Dict[Stream, int] = {}
        # Idempotent stamp cache: msg_id -> tag (custody redelivery
        # re-freshens an already-stamped message).
        self._tags: Dict[int, OrderTag] = {}
        # Per-node observed vector clock (causal level).
        self._observed: Dict[int, Dict[Stream, int]] = {}
        # Per-node hybrid logical clock in microseconds (total level).
        self._hlc: Dict[int, int] = {}
        self._pipelines: List[DeliveryPipeline] = []

    @classmethod
    def from_text(cls, text: Optional[str], **kwargs) -> Optional["OrderingPlan"]:
        """Build a plan from config text; ``None``/empty means ordering off."""
        if not text:
            return None
        return cls(parse_ordering(text), **kwargs)

    # ------------------------------------------------------------------
    def pipeline_for(self, broker) -> DeliveryPipeline:
        """The per-broker pipeline stage for this plan's level."""
        pipeline = PIPELINES[self.level](broker, self)
        self._pipelines.append(pipeline)
        return pipeline

    # ------------------------------------------------------------------
    def stamp(self, frame: PacketFrame) -> Optional[OrderTag]:
        """Allocate (or recall) a fresh frame's tag."""
        cached = self._tags.get(frame.msg_id)
        if cached is not None:
            return cached
        if not self.spec.covers(frame.topic):
            return None
        origin = frame.origin
        stream = (frame.topic, origin)
        seq = self._seqs.get(stream, 0) + 1
        self._seqs[stream] = seq
        vc: Optional[Dict[Stream, int]] = None
        ts = 0
        if self.level == "causal":
            observed = self._observed.setdefault(origin, {})
            vc = dict(observed)
            vc[stream] = seq
            # The publisher observes its own publication.
            observed[stream] = seq
        elif self.level == "total":
            # Hybrid logical clock: the publish time in microseconds,
            # pushed forward past everything this node stamped or
            # delivered before, so "smaller key" means "published
            # earlier" while causality still holds.
            ts = max(self._hlc.get(origin, 0) + 1, int(frame.publish_time * 1e6))
            self._hlc[origin] = ts
        tag = OrderTag(origin=origin, seq=seq, vc=vc, ts=ts)
        self._tags[frame.msg_id] = tag
        return tag

    def note_delivery(self, node: int, frame: PacketFrame, tag: OrderTag) -> None:
        """Advance *node*'s clocks after a release (Lamport receive rule,
        vector-clock merge) so its future publishes carry the causality."""
        if self.level == "causal":
            observed = self._observed.setdefault(node, {})
            stream = (frame.topic, tag.origin)
            if tag.seq > observed.get(stream, 0):
                observed[stream] = tag.seq
            if tag.vc:
                for dep, count in tag.vc.items():
                    if count > observed.get(dep, 0):
                        observed[dep] = count
        elif self.level == "total":
            if tag.ts > self._hlc.get(node, 0):
                self._hlc[node] = tag.ts

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Disarm every pipeline; late stall-timer callbacks become no-ops."""
        for pipeline in self._pipelines:
            pipeline.close()

    def flush(self) -> None:
        """End-of-run drain of every pipeline's hold-back buffer."""
        for pipeline in self._pipelines:
            pipeline.flush()

    def held_count(self) -> int:
        """Frames currently held back across all pipelines."""
        return sum(pipeline.held_count() for pipeline in self._pipelines)

    def perf_counters(self) -> Dict[str, float]:
        """``ordering.*`` entries for ``MetricsSummary.perf``."""
        counters = {
            "ordering.offers": float(
                sum(p.offers for p in self._pipelines)
            ),
            "ordering.releases": float(
                sum(p.releases for p in self._pipelines)
            ),
            "ordering.stall_releases": float(
                sum(p.stall_releases for p in self._pipelines)
            ),
            "ordering.held_at_end": float(self.held_count()),
            "ordering.window_samples": float(
                sum(p.window_samples for p in self._pipelines)
            ),
        }
        # Hold time by what ended the hold: the cost of the guarantee
        # (ready), of its escape hatch (stall) and of the run ending.
        for reason in ("ready", "stall", "flush"):
            counters[f"ordering.held_s.{reason}"] = sum(
                p.held_s[reason] for p in self._pipelines
            )
        windows = [
            w for w in (p.window() for p in self._pipelines) if w is not None
        ]
        counters["ordering.window_s"] = (
            sum(windows) / len(windows) if windows else 0.0
        )
        return counters


def plan_from_scenario(text: Optional[str]) -> Optional[OrderingPlan]:
    """The shared scripted-scenario plan builder.

    Every substrate of the three-way conformance matrix — sim, live
    single-process, multi-process partitions — builds its plan through
    this one helper, so all three run identical (conservative) hold-back
    timings: scenario worlds retransmit through multi-second ACK
    timeouts, and the total-order agreement window must outlast the
    worst-case recovery or the substrates' agreed prefixes would
    legitimately diverge. The window is therefore given, not measured:
    a wall-clock substrate's transits jitter, and an estimate fed by
    them would differ between substrates.
    """
    if not text:
        return None
    return OrderingPlan(
        parse_ordering(text),
        stall_timeout=SCENARIO_STALL_TIMEOUT,
        total_hold=SCENARIO_TOTAL_HOLD,
    )
