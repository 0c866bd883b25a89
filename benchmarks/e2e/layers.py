"""Metric catalogue: the end-to-end nine and the per-layer attribution.

``BENCHMARK.json`` lists exactly these names (``tests/test_contract.py``
holds the two in step). A per-layer metric whose source no longer exists —
a wrapped method that was folded away, a counter dropped from
``MetricsSummary.perf`` — is reported as :data:`ABSENT`, never as a crash.
A metric that simply does not apply to a workload (``codec.*`` on the
simulator, ``sim.*`` on sockets) is a true zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from tracing import Recorder, SpanWindow
from workloads import Rep

#: Value written for a per-layer metric whose source is gone.
ABSENT = -1.0

#: ``(name, unit, better, share of the parent's median it may worsen by)``.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_pair", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("delivery_ratio", "ratio", "higher", 0.005),
    ("on_time_ratio", "ratio", "higher", 0.15),
    ("packets_per_pair", "count", "lower", 0.15),
    ("delay_p50_s", "s", "lower", 0.10),
    ("delay_p95_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)``, grouped by the module each one watches.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # sim
    ("sim.events", "count", "lower"),
    ("sim.events_per_pair", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.run_self_s", "s", "lower"),
    ("sim.heap_compactions", "count", "lower"),
    ("sim.tombstones_reaped", "count", "lower"),
    # overlay.links
    ("links.transmit_calls", "count", "lower"),
    ("links.self_s", "s", "lower"),
    ("links.data_sent", "count", "lower"),
    ("links.lost_failure", "count", "lower"),
    ("links.lost_random", "count", "lower"),
    ("links.enqueued", "count", "lower"),
    ("links.dropped_expired", "count", "lower"),
    ("links.dir_fallbacks", "count", "lower"),
    # overlay.failures / overlay.monitor
    ("failures.epoch_calls", "count", "lower"),
    ("failures.self_s", "s", "lower"),
    ("monitor.refreshes", "count", "lower"),
    ("monitor.refresh_self_s", "s", "lower"),
    # routing.arq
    ("arq.send_calls", "count", "lower"),
    ("arq.self_s", "s", "lower"),
    ("arq.retransmissions", "count", "lower"),
    ("arq.retransmissions_per_pair", "count", "lower"),
    ("arq.ack_timeouts", "count", "lower"),
    ("arq.timers_cancelled", "count", "lower"),
    ("arq.timers_elided", "count", "higher"),
    ("arq.elided_share", "ratio", "higher"),
    # pubsub.broker / pubsub.messages
    ("broker.on_frame_calls", "count", "lower"),
    ("broker.self_s", "s", "lower"),
    ("broker.dedup_discards", "count", "lower"),
    ("broker.duplicate_share", "ratio", "lower"),
    ("messages.forks", "count", "lower"),
    ("messages.forks_per_pair", "count", "lower"),
    # core.forwarding
    ("dcrd.publish_calls", "count", "lower"),
    ("dcrd.handle_data_calls", "count", "lower"),
    ("dcrd.self_s", "s", "lower"),
    ("dcrd.tasks_started", "count", "lower"),
    ("dcrd.failovers", "count", "lower"),
    ("dcrd.bounces", "count", "lower"),
    ("dcrd.abandoned", "count", "lower"),
    # core.computation (in-run refreshes only; the cold solve is setup_s)
    ("solver.refreshes", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.ms_per_table", "ms", "lower"),
    ("solver.tables_cold", "count", "lower"),
    ("solver.tables_warm", "count", "higher"),
    ("solver.tables_reused", "count", "higher"),
    ("solver.jacobi_rounds", "count", "lower"),
    ("solver.node_recomputes", "count", "lower"),
    # ordering
    ("ordering.offers", "count", "lower"),
    ("ordering.self_s", "s", "lower"),
    ("ordering.holds", "count", "lower"),
    ("ordering.release_ready", "count", "higher"),
    ("ordering.release_stall", "count", "lower"),
    ("ordering.release_flush", "count", "lower"),
    ("ordering.held_for_p50_s", "s", "lower"),
    ("ordering.held_for_p99_s", "s", "lower"),
    # metrics
    ("metrics.collector_self_s", "s", "lower"),
    ("metrics.summarize_s", "s", "lower"),
    # live.codec / live.transport / live.clock / live.runtime
    ("codec.encode_calls", "count", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.bytes_per_frame", "B", "lower"),
    ("transport.transmit_calls", "count", "lower"),
    ("transport.self_s", "s", "lower"),
    ("transport.frames_per_pair", "count", "lower"),
    ("clock.timers_scheduled", "count", "lower"),
    ("clock.timer_slop_p99_s", "s", "lower"),
    ("live.publish_window_s", "s", "lower"),
    ("live.achieved_msgs_per_s", "1/s", "higher"),
    ("live.pacing_lag_ratio", "ratio", "lower"),
    ("live.cpu_busy_share", "ratio", "lower"),
    ("live.delay_overhead_p50_s", "s", "lower"),
    ("live.delay_overhead_p99_s", "s", "lower"),
    # the harness itself
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def end_to_end(rep: Rep) -> Dict[str, float]:
    """One repetition's end-to-end metrics (``peak_rss_mb`` is per process).

    The three host-time metrics are at reference machine speed (machine.py).
    """
    expected = rep.expected
    return {
        "setup_s": rep.setup.reference_wall_s,
        "pairs_per_s": rep.delivered / rep.timed.reference_wall_s,
        "cpu_us_per_pair": rep.timed.reference_cpu_s * 1e6 / max(rep.delivered, 1),
        "delivery_ratio": rep.delivered / expected,
        "on_time_ratio": rep.on_time / expected,
        "packets_per_pair": rep.data_transmissions / expected,
        "delay_p50_s": rep.delay_p50_s,
        "delay_p95_s": rep.delay_p95_s,
    }


def _quantile(samples: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(samples), q)) if samples else 0.0


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: Rep,
    untraced: Rep,
    window: SpanWindow,
    recorder: Recorder,
    sim_delay_quantiles: Optional[Tuple[float, float, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repetition."""
    live = traced.substrate == "live"
    perf: Dict[str, float] = traced.facts["perf"]
    before: Dict[str, float] = traced.facts["perf_before"]
    probes = recorder.probe_counts
    pairs = float(traced.expected)

    def counter(key: str, in_run: bool = False) -> Optional[float]:
        """A program-side counter; kernel/solver counters are 0 on sockets."""
        value = perf.get(key)
        if value is None:
            # The solver drops never-touched counters from its snapshot.
            return 0.0 if live or key.startswith("control_plane.") else None
        return value - before.get(key, 0.0) if in_run else value

    def calls(prefix: str, entries: bool = False) -> Optional[float]:
        if not window.has(prefix):
            return 0.0 if _inapplicable(prefix, live) else None
        return float(window.entries(prefix) if entries else window.calls(prefix))

    def self_s(prefix: str) -> Optional[float]:
        if not window.has(prefix):
            return 0.0 if _inapplicable(prefix, live) else None
        return window.self_time(prefix)

    def fact(key: str) -> Optional[float]:
        value = traced.facts.get(key)
        return 0.0 if value is None and live else value

    events = counter("sim.events_processed")
    retransmissions = counter("arq.retransmissions")
    arq_sends = calls("arq.send")
    elided = counter("arq.timers_elided")
    copies = None if arq_sends is None or retransmissions is None else arq_sends + retransmissions
    on_frames = calls("broker.on_frame")
    forks = float(probes.counts["fork"])
    solve_s = self_s("solver")
    cold = counter("control_plane.tables_solved_cold", in_run=True)
    warm = counter("control_plane.tables_warm_started", in_run=True)
    solved = None if cold is None or warm is None else cold + warm
    encodes = calls("codec.encode_payload")
    transmits = calls("transport", entries=True)

    values: Dict[str, Optional[float]] = {
        "sim.events": events,
        "sim.events_per_pair": _ratio(events, pairs),
        "sim.us_per_event": _ratio(_scaled(self_s("sim"), 1e6), events),
        "sim.run_self_s": self_s("sim"),
        "sim.heap_compactions": counter("sim.heap_compactions"),
        "sim.tombstones_reaped": counter("sim.tombstones_reaped"),
        "links.transmit_calls": calls("links", entries=True),
        "links.self_s": self_s("links"),
        "links.data_sent": float(traced.data_transmissions),
        "links.lost_failure": fact("lost_failure"),
        "links.lost_random": fact("lost_random"),
        "links.enqueued": float(probes.counts["enqueue"]),
        "links.dropped_expired": fact("dropped_expired"),
        "links.dir_fallbacks": counter("flat.dir_fallbacks"),
        "failures.epoch_calls": calls("failures"),
        "failures.self_s": self_s("failures"),
        "monitor.refreshes": calls("monitor"),
        "monitor.refresh_self_s": self_s("monitor"),
        "arq.send_calls": arq_sends,
        "arq.self_s": self_s("arq"),
        "arq.retransmissions": retransmissions,
        "arq.retransmissions_per_pair": _ratio(retransmissions, pairs),
        "arq.ack_timeouts": float(probes.counts["ack_timeout"]),
        "arq.timers_cancelled": counter("arq.timers_cancelled"),
        "arq.timers_elided": elided,
        "arq.elided_share": _ratio(elided, copies),
        "broker.on_frame_calls": on_frames,
        "broker.self_s": self_s("broker"),
        "broker.dedup_discards": float(probes.counts["dedup_discard"]),
        "broker.duplicate_share": _ratio(float(probes.counts["dedup_discard"]), on_frames),
        "messages.forks": forks,
        "messages.forks_per_pair": forks / pairs,
        "dcrd.publish_calls": calls("dcrd.publish"),
        "dcrd.handle_data_calls": calls("dcrd.handle_data"),
        "dcrd.self_s": self_s("dcrd"),
        "dcrd.tasks_started": counter("data_plane.tasks_started"),
        "dcrd.failovers": float(probes.counts["failover"]),
        "dcrd.bounces": float(probes.counts["bounce"]),
        "dcrd.abandoned": counter("data_plane.abandoned"),
        "solver.refreshes": counter("control_plane.refreshes", in_run=True),
        "solver.solve_s": solve_s,
        "solver.ms_per_table": _ratio(_scaled(solve_s, 1e3), solved),
        "solver.tables_cold": cold,
        "solver.tables_warm": warm,
        "solver.tables_reused": counter("control_plane.tables_reused", in_run=True),
        "solver.jacobi_rounds": counter("control_plane.jacobi_rounds", in_run=True),
        "solver.node_recomputes": counter("control_plane.node_recomputes", in_run=True),
        "ordering.offers": calls("ordering.offer"),
        "ordering.self_s": self_s("ordering"),
        "ordering.holds": float(probes.counts["order_hold"]),
        "ordering.release_ready": float(probes.releases["ready"]),
        "ordering.release_stall": float(probes.releases["stall"]),
        "ordering.release_flush": float(probes.releases["flush"]),
        "ordering.held_for_p50_s": _quantile(probes.held_for, 0.5),
        "ordering.held_for_p99_s": _quantile(probes.held_for, 0.99),
        "metrics.collector_self_s": self_s("metrics"),
        "metrics.summarize_s": self_s("summarize"),
        "codec.encode_calls": encodes,
        "codec.encode_s": _sum(self_s("codec.encode_payload"), self_s("codec.frame_message")),
        "codec.decode_calls": calls("codec.decode_payload"),
        "codec.decode_s": _sum(self_s("codec.decode_payload"), self_s("codec.split_prefix")),
        "codec.bytes_per_frame": _ratio(
            float(recorder.result_bytes.get("codec.encode_payload", 0)), encodes
        ),
        "transport.transmit_calls": transmits,
        "transport.self_s": self_s("transport"),
        "transport.frames_per_pair": _ratio(transmits, pairs),
        "clock.timers_scheduled": calls("clock"),
        "clock.timer_slop_p99_s": _quantile(recorder.timer_slop, 0.99),
        "trace.overhead_ratio": traced.timed.reference_wall_s / untraced.timed.reference_wall_s,
        "trace.unattributed_share": window.unattributed_share,
    }
    values.update(_live_runtime(traced, window, sim_delay_quantiles))
    return {name: ABSENT if values[name] is None else float(values[name]) for name, _, _ in PER_LAYER}


#: Layers with no code on the other substrate: a missing wrapper there is
#: a true zero, not an absent metric.
_SOCKET_LAYERS = frozenset({"codec", "transport", "clock"})
_KERNEL_LAYERS = frozenset({"sim", "links", "failures", "summarize"})


def _inapplicable(prefix: str, live: bool) -> bool:
    return prefix.split(".", 1)[0] in (_KERNEL_LAYERS if live else _SOCKET_LAYERS)


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _sum(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or b is None else a + b


def _live_runtime(
    traced: Rep, window: SpanWindow, sim_delay_quantiles: Optional[Tuple[float, float, float]]
) -> Dict[str, Optional[float]]:
    """``live.*``: what the paced publish loop achieved (zero on the simulator)."""
    names = (
        "live.publish_window_s", "live.achieved_msgs_per_s", "live.pacing_lag_ratio",
        "live.cpu_busy_share", "live.delay_overhead_p50_s", "live.delay_overhead_p99_s",
    )
    if traced.substrate != "live":
        return dict.fromkeys(names, 0.0)
    publishes = window.start_times("dcrd.publish")
    if len(publishes) < 2:
        window_s = rate = lag = None
    else:
        window_s = float(publishes[-1] - publishes[0])
        rate = (len(publishes) - 1) / window_s
        lag = window_s / ((len(publishes) - 1) * traced.facts["publish_interval"])
    sim_p50, _sim_p95, sim_p99 = sim_delay_quantiles or (None, None, None)
    return {
        "live.publish_window_s": window_s,
        "live.achieved_msgs_per_s": rate,
        "live.pacing_lag_ratio": lag,
        "live.cpu_busy_share": traced.timed.cpu_s / traced.timed.wall_s,
        "live.delay_overhead_p50_s": None if sim_p50 is None else traced.delay_p50_s - sim_p50,
        "live.delay_overhead_p99_s": None if sim_p99 is None else traced.delay_p99_s - sim_p99,
    }
