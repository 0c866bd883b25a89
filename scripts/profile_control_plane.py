#!/usr/bin/env python3
"""Profile one control-plane refresh at Figure-5 scale.

Runs the same scenario as the ``control_plane`` microbenchmark — 160
nodes at degree 8, sampled-mode monitoring, 24 standing (publisher,
subscriber) pairs over 5 publishers, one monitoring refresh — under
:mod:`cProfile`, once for the scalar per-pair reference loop
(``tests/core/reference_solver.py``) and once for the batched kernel, and
prints the top entries by cumulative time for each. Use this to see
*where* a control-plane regression landed before reaching for the
microbenchmark's single number.

It then solves the setup tables of a ``dense_dataplane``-shaped world
(degree 8, 4 topics, ``--nodes`` brokers) and prints the kernel's rounds in
bands — tables still running, dirty cells evaluated, milliseconds — so it
is visible where a solve spends its rounds and that the limit-cycle tail
(rounds carried forward, ``control_plane.rounds_skipped``) is not run.

Usage::

    PYTHONPATH=src python scripts/profile_control_plane.py [--top N] [--nodes N]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "benchmarks")]

from bench_kernel_performance import control_plane_workload  # noqa: E402
from repro.core.computation import ControlPlaneSolver  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import build_environment  # noqa: E402
from repro.perf import PerfStats, format_perf  # noqa: E402
from tests.core.reference_solver import reference_solve  # noqa: E402


def profile(label: str, fn, top: int) -> None:
    print(f"=== {label} ===")
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def round_bands(nodes: int) -> None:
    """Per-round-band cost of one world's setup solve.

    The kernel calls ``_candidates`` once per round with that round's dirty
    cells (and once more for the sending lists), so timestamping those
    calls gives every round's duration without touching the solver.
    """
    config = ExperimentConfig(
        topology_kind="regular", degree=8, num_nodes=nodes, num_topics=4,
        failure_probability=0.06,
    )
    marks = []
    candidates = ControlPlaneSolver._candidates

    def timed(self, d, r, budgets, cells):
        marks.append((time.perf_counter(), cells))
        return candidates(self, d, r, budgets, cells)

    ControlPlaneSolver._candidates = timed
    try:
        env = build_environment(config, "DCRD", 1)
    finally:
        ControlPlaneSolver._candidates = candidates

    rounds = [
        (len(np.unique(cells // (nodes + 1))), len(cells), (end - start) * 1e3)
        for (start, cells), (end, _) in zip(marks, marks[1:])
    ]
    print(f"=== kernel rounds, {nodes}-node setup solve ===")
    print(f"{'rounds':>9} {'tables running':>15} {'dirty cells':>12} {'ms':>9}")
    low, high = 0, 10
    while low < len(rounds):
        band = rounds[low:high]
        print(
            f"{low + 1:>4}-{low + len(band):<4} {band[0][0]:>7} -> {band[-1][0]:<5}"
            f"{sum(cells for _, cells, _ in band):>12} "
            f"{sum(ms for _, _, ms in band):>9.1f}"
        )
        low, high = high, 2 * high
    perf = env.strategy.perf
    print(
        f"{len(rounds)} batch rounds run for "
        f"{perf.get('control_plane.tables_solved_cold'):.0f} tables; "
        f"{perf.get('control_plane.cycles_detected'):.0f} limit cycles carried "
        f"forward {perf.get('control_plane.rounds_skipped'):.0f} table-rounds of "
        f"{perf.get('control_plane.jacobi_rounds'):.0f}\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--top", type=int, default=20, help="profile entries to print"
    )
    parser.add_argument(
        "--nodes", type=int, default=160, help="brokers of the round-band world"
    )
    args = parser.parse_args()

    topology, estimates, changed, pairs = control_plane_workload()
    perf = PerfStats()

    def reference():
        return [
            reference_solve(topology, estimates, pub, sub, deadline)
            for pub, sub, deadline in pairs
        ]

    def kernel():
        solver = ControlPlaneSolver(topology, estimates, perf=perf)
        return solver.solve(
            [
                pair
                for pair in pairs
                if solver.table_affected(pair[0], pair[2], changed)
            ]
        )

    profile("scalar per-pair reference loop", reference, args.top)
    profile("batched kernel refresh", kernel, args.top)
    print("Kernel-pass perf counters:")
    print(format_perf(perf.snapshot()))
    print()
    round_bands(args.nodes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
