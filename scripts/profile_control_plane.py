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

It then prints the kernel's Jacobi rounds in bands — tables and cells
evaluated, milliseconds — for two solves: the setup solve of a
``dense_dataplane``-shaped world (degree 8, 4 topics, ``--nodes`` brokers)
and the first in-run refresh of the ``refresh_controlplane`` benchmark
world. That shows where a solve spends its rounds, that round 1 evaluates
only the subscribers' neighbours, and that the limit-cycle tail (rounds
carried forward, ``control_plane.rounds_skipped``) is not run.

Usage::

    PYTHONPATH=src python scripts/profile_control_plane.py [--top N] [--nodes N]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
sys.path[:0] = [str(ROOT), str(BENCHMARKS), str(BENCHMARKS / "e2e")]

from bench_kernel_performance import control_plane_workload  # noqa: E402
from repro.core.computation import ControlPlaneSolver  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import build_environment  # noqa: E402
from repro.perf import PerfStats, format_perf  # noqa: E402
from tests.core.reference_solver import reference_solve  # noqa: E402
from workloads import BY_NAME  # noqa: E402

#: Solver counters the band tables summarise, per solve.
COUNTERS = (
    "tables_solved_cold",
    "jacobi_rounds",
    "node_recomputes",
    "cycles_detected",
    "rounds_skipped",
)


def profile(label: str, fn, top: int) -> None:
    print(f"=== {label} ===")
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


@contextmanager
def recorded_solves() -> Iterator[List[dict]]:
    """Record every solve run inside the block, round by round.

    ``ControlPlaneSolver._evaluate`` is the kernel's round seam: ``solve``
    calls it exactly once per batch round, with the cells that round
    evaluates. Timestamping it (and ``solve``, which delimits the rounds
    of one solve and holds the counters) times every round without
    touching the solver.
    """
    solves: List[dict] = []
    evaluate, solve = ControlPlaneSolver._evaluate, ControlPlaneSolver.solve

    def timed_evaluate(self, d, r, budgets, cells, *rest):
        started = time.perf_counter()
        result = evaluate(self, d, r, budgets, cells, *rest)
        # The solver never writes into a round's cell array, so it is kept
        # as is and its tables are counted after the solve, untimed.
        solves[-1]["rounds"].append((started, time.perf_counter(), cells))
        return result

    def timed_solve(self, pairs):
        before = self.perf.snapshot() if self.perf is not None else {}
        record = {"rounds": [], "started": time.perf_counter()}
        solves.append(record)
        tables = solve(self, pairs)
        record["ended"] = time.perf_counter()
        stride = self.topology.num_nodes + 1
        record["rounds"] = [
            (started, ended, len(np.unique(cells // stride)), len(cells))
            for started, ended, cells in record["rounds"]
        ]
        after = self.perf.snapshot() if self.perf is not None else {}
        record["counters"] = {
            name: after.get(f"control_plane.{name}", 0)
            - before.get(f"control_plane.{name}", 0)
            for name in COUNTERS
        }
        return tables

    ControlPlaneSolver._evaluate = timed_evaluate
    ControlPlaneSolver.solve = timed_solve
    try:
        yield solves
    finally:
        ControlPlaneSolver._evaluate, ControlPlaneSolver.solve = evaluate, solve


def print_bands(title: str, record: dict) -> None:
    """One solve's rounds in bands 1, 2-10, 11-20, 21-40, ...

    A round lasts from its evaluation to the next one's; the last round's
    own bookkeeping falls into the time after the rounds, with the
    sending-list pass and the construction of the tables.
    """
    rounds = record["rounds"]
    starts = [start for start, _, _, _ in rounds]
    ends = starts[1:] + [rounds[-1][1]] if rounds else []
    print(f"=== kernel rounds, {title} ===")
    print(
        f"{'rounds':>9} {'tables evaluated':>17} {'cells evaluated':>16} {'ms':>8}"
    )
    low, high = 0, 1
    while low < len(rounds):
        band = rounds[low:high]
        ms = sum(ends[low:high]) - sum(starts[low:high])
        print(
            f"{low + 1:>4}-{low + len(band):<4} {band[0][2]:>8} -> {band[-1][2]:<6}"
            f"{sum(cells for _, _, _, cells in band):>16} {ms * 1e3:>8.1f}"
        )
        low, high = high, 10 if high == 1 else 2 * high
    counters = record["counters"]
    total_ms = (record["ended"] - record["started"]) * 1e3
    rounds_ms = (ends[-1] - starts[0]) * 1e3 if rounds else 0.0
    print(
        f"{len(rounds)} batch rounds run for {counters['tables_solved_cold']:.0f} "
        f"tables ({counters['jacobi_rounds']:.0f} table-rounds, "
        f"{counters['node_recomputes']:.0f} node recomputes); "
        f"{counters['cycles_detected']:.0f} limit cycles carried forward "
        f"{counters['rounds_skipped']:.0f} table-rounds; "
        f"solve {total_ms:.1f} ms, rounds {rounds_ms:.1f} ms\n"
    )


def round_bands(nodes: int) -> None:
    """The rounds of a dense setup solve and of one in-run refresh."""
    dense = ExperimentConfig(
        topology_kind="regular", degree=8, num_nodes=nodes, num_topics=4,
        failure_probability=0.06,
    )
    with recorded_solves() as solves:
        build_environment(dense, "DCRD", 1)
    print_bands(f"{nodes}-node setup solve", solves[0])

    refresh = BY_NAME["refresh_controlplane"]
    with recorded_solves() as solves:
        refresh.build(1).execute()
    print_bands(
        "first in-run refresh of refresh_controlplane "
        f"({refresh.config.num_nodes} nodes, seed 1; "
        f"{len(solves) - 1} refreshes)",
        solves[1],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--top", type=int, default=20, help="profile entries to print"
    )
    parser.add_argument(
        "--nodes", type=int, default=160, help="brokers of the dense setup world"
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
