"""Microbenchmarks of the substrate itself (not a paper figure).

These pin the performance of the three hot paths so regressions show up in
``--benchmark-compare`` runs: raw event throughput of the kernel, the
``<d, r>`` fixed-point solver at Figure-5 scale, and one full DCRD run at
the paper's default scale.
"""

import os
import sys
from pathlib import Path

import numpy as np

from repro import probes
from repro.core.computation import ControlPlaneSolver, compute_dr_table
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, run_single
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkEstimate, LinkMonitor
from repro.overlay.topology import random_regular
from repro.perf import time_call
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

from _common import bench_duration, save_report

# The scalar reference solve lives with the tests that use it as the oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.core.reference_solver import reference_solve  # noqa: E402

#: Events/sec of the data-plane benchmark scenario measured at the commit
#: immediately before the fast path landed (tuple-keyed heap, frame fast
#: copies, hot-loop caching), on the reference machine: best of 6
#: interleaved old/new rounds so both sides saw the same load. Overridable
#: for other machines via ``REPRO_BENCH_BASELINE_EPS``.
DATA_PLANE_BASELINE_EPS = float(
    os.environ.get("REPRO_BENCH_BASELINE_EPS", 52_015.0)
)


def test_event_throughput(benchmark):
    """Schedule-and-run one million chained events."""

    def run():
        sim = Simulator()
        remaining = [200_000]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(0.001, tick)

        for _ in range(5):
            sim.schedule(0.0, tick)
        sim.run()
        return sim.processed_events

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events >= 200_000


def test_dr_table_solver_at_scale(benchmark):
    """One 160-node degree-8 pair solve (Figure 5's hardest setting)."""
    rng = np.random.default_rng(0)
    topology = random_regular(160, 8, rng)
    estimates = {
        edge: LinkEstimate(alpha=topology.delay(*edge), gamma=0.94)
        for edge in topology.edges()
    }

    def run():
        return compute_dr_table(
            topology, estimates, publisher=0, subscriber=159, deadline=0.5
        )

    table = benchmark.pedantic(run, rounds=3, iterations=1)
    assert table.reachable(0)


def control_plane_workload(num_pairs=24, num_publishers=5):
    """A Figure-5-scale refresh scenario for the control-plane benchmark.

    160 nodes at degree 8, sampled-mode monitoring at the default loss
    rate, *num_pairs* (publisher, subscriber, deadline) pairs spread over
    *num_publishers* publishers, and the estimates one monitoring cycle
    after setup.
    """
    rng = np.random.default_rng(7)
    topology = random_regular(160, 8, rng)
    streams = RandomStreams(7)
    sim = Simulator()
    network = OverlayNetwork(sim, topology, streams, loss_rate=1e-4)
    monitor = LinkMonitor(topology, network, streams, mode="sampled")

    pairs = []
    for index in range(num_pairs):
        publisher, subscriber = index % num_publishers, 10 + index
        deadline = 2.5 * topology.shortest_delay(publisher, subscriber)
        pairs.append((publisher, subscriber, deadline))
    monitor.refresh()  # the timed event: one monitoring cycle later
    return topology, monitor.snapshot(), monitor.last_changed, pairs


def test_control_plane_batched_refresh(benchmark):
    """One batched kernel solve vs the scalar per-pair reference loop.

    The scenario is one monitoring refresh at Figure-5 scale: 24 standing
    (publisher, subscriber) pairs sharing 5 publishers must be re-solved
    against the new estimates. The baseline is the scalar Jacobi loop the
    solver used to run, once per pair
    (``tests/core/reference_solver.py``); the kernel shares one
    :class:`ControlPlaneSolver`, skips tables no changed edge can reach,
    and solves the rest as one batch.
    """
    topology, estimates, changed, pairs = control_plane_workload()

    def reference():
        return [
            reference_solve(topology, estimates, pub, sub, deadline)
            for pub, sub, deadline in pairs
        ]

    def kernel():
        solver = ControlPlaneSolver(topology, estimates)
        affected = [
            pair for pair in pairs if solver.table_affected(pair[0], pair[2], changed)
        ]
        return affected, solver.solve(affected)

    # Interleave the two measurements so a transient load spike degrades
    # both sides instead of silently skewing the ratio.
    before_s = after_s = float("inf")
    for _ in range(5):
        elapsed, reference_tables = time_call(reference)
        before_s = min(before_s, elapsed)
        elapsed, (affected, kernel_tables) = time_call(kernel)
        after_s = min(after_s, elapsed)
    speedup = before_s / after_s

    # Same work, faster kernel: every table is the reference's, exactly.
    expected = dict(zip(pairs, reference_tables))
    assert kernel_tables == [expected[pair] for pair in affected]

    lines = [
        "Control-plane refresh at Figure-5 scale "
        "(160 nodes, degree 8, sampled monitoring)",
        f"  standing pairs          {len(pairs)} "
        f"(sharing {len({p for p, _, _ in pairs})} publishers)",
        f"  changed link estimates  {len(changed)} of {len(estimates)}",
        f"  tables re-solved        {len(affected)} of {len(pairs)}",
        f"  scalar loop (reference) {before_s * 1000.0:8.2f} ms",
        f"  batched kernel          {after_s * 1000.0:8.2f} ms",
        f"  speedup                 {speedup:8.2f}x",
    ]
    save_report("control_plane", "\n".join(lines))

    benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert speedup >= 3.0, f"expected >= 3x speedup, measured {speedup:.2f}x"


def test_data_plane_fast_path(benchmark):
    """End-to-end data-plane throughput at Figure-5's hardest scale.

    One full DCRD run on a 160-node degree-8 overlay; the timed region is
    ``execute()`` only (construction excluded), reported as processed
    events per wall-clock second. Best-of-N defeats transient load spikes.
    At the full default duration the measurement must stay >= 2x the
    recorded pre-fast-path baseline; smoke runs (a reduced
    ``REPRO_BENCH_DURATION``) report the numbers without asserting, since
    short runs amortise startup badly and CI machines vary.
    """
    duration = bench_duration(10.0)
    config = ExperimentConfig(
        topology_kind="regular",
        degree=8,
        num_nodes=160,
        num_topics=4,
        publish_interval=0.2,
        failure_probability=0.06,
        duration=duration,
    )
    full_scale = duration >= 10.0
    rounds = 5 if full_scale else 2

    # Probe-overhead guard: with no observer attached, every repro.probes
    # slot must be the literal None, so the timed region measures the
    # zero-observer fast path — one ``is not None`` test per hook site.
    # The >= 2x floor below then doubles as the overhead regression gate
    # against the baseline recorded before the bus existed.
    assert probes.observers() == ()
    for family in probes.FAMILIES:
        assert getattr(probes, "on_" + family) is None

    best_eps, events, summary = 0.0, 0, None
    for _ in range(rounds):
        env = build_environment(config, "DCRD", seed=0)
        elapsed, summary = time_call(env.execute)
        events = env.ctx.sim.processed_events
        best_eps = max(best_eps, events / elapsed)

    speedup = best_eps / DATA_PLANE_BASELINE_EPS
    perf = summary.perf
    lines = [
        "Data-plane fast path (160 nodes, degree 8, DCRD, seed 0, "
        f"duration {duration:g}s)",
        f"  events per run            {events}",
        f"  best of {rounds} rounds          {best_eps:10.0f} events/s",
        f"  pre-change baseline       {DATA_PLANE_BASELINE_EPS:10.0f} events/s"
        " (best of 6 interleaved rounds)",
        f"  speedup                   {speedup:10.2f}x",
        f"  heap compactions          {perf['sim.heap_compactions']:10.0f}",
        f"  tombstones reaped         {perf['sim.tombstones_reaped']:10.0f}",
        f"  ACK timers cancelled      {perf['arq.timers_cancelled']:10.0f}",
        f"  ACK timers elided         {perf['arq.timers_elided']:10.0f}",
        f"  frames forwarded          {perf['data_plane.frames_forwarded']:10.0f}",
        f"  interned directions       {perf['flat.interned_directions']:10.0f}",
        f"  facade fallbacks          {perf['flat.dir_fallbacks']:10.0f}",
    ]
    save_report("data_plane", "\n".join(lines))

    # The timed region must never have left the flat index-addressed
    # path: a steady-state run resolves every direction once at prewarm
    # and each send thereafter is a compiled-closure dispatch.
    assert perf["flat.dir_fallbacks"] == 0.0

    benchmark.pedantic(
        lambda: build_environment(config, "DCRD", seed=0).execute(),
        rounds=1,
        iterations=1,
    )
    assert summary.delivery_ratio > 0.9
    if full_scale:
        assert speedup >= 2.0, (
            f"data-plane fast path regressed: {best_eps:.0f} events/s is "
            f"{speedup:.2f}x the recorded baseline "
            f"{DATA_PLANE_BASELINE_EPS:.0f} (need >= 2x)"
        )


def test_full_dcrd_run(benchmark):
    """A complete 20-node DCRD run at the paper's default setting."""
    config = ExperimentConfig(
        topology_kind="regular", degree=5, failure_probability=0.06, duration=30.0
    )

    def run():
        return run_single(config, "DCRD", seed=0)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    assert summary.delivery_ratio > 0.95
