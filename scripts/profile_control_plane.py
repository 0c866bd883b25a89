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

It then prints the kernel's Gauss-Seidel sweeps in bands — block
evaluations, tables and cells evaluated, milliseconds — for two solves: the
setup solve of a ``dense_dataplane``-shaped world (degree 8, 4 topics,
``--nodes`` brokers) and the first in-run refresh of the
``refresh_controlplane`` benchmark world. That shows where a solve spends
its sweeps, that sweep 1 evaluates only the wavefront out of the
subscribers, and how many candidates the exit rule banned
(``control_plane.candidates_banned``).

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
    "candidates_banned",
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
    """Record every solve run inside the block, sweep by sweep.

    ``ControlPlaneSolver._evaluate`` is the kernel's block seam: ``solve``
    calls it exactly once per block of a sweep that has dirty cells, with
    those cells. Timestamping it (and ``solve``, which delimits the sweeps
    of one solve and holds the counters) times every block without
    touching the solver. A sweep starts wherever a block comes at or
    before the previous one in the sweep order: what a sweep leaves dirty
    was dirtied after its block's turn, so the next sweep's first block is
    never later than the last one evaluated.
    """
    solves: List[dict] = []
    evaluate, solve = ControlPlaneSolver._evaluate, ControlPlaneSolver.solve

    def timed_evaluate(self, d, r, budgets, flips, cells, nodes, *rest):
        started = time.perf_counter()
        result = evaluate(self, d, r, budgets, flips, cells, nodes, *rest)
        # The solver never writes into a block's cell array, so it is kept
        # as is and its tables are counted after the solve, untimed.
        record = solves[-1]
        block = record["block_of"][nodes[0]]
        record["blocks"].append((started, time.perf_counter(), cells, block))
        return result

    def timed_solve(self, pairs):
        before = self.perf.snapshot() if self.perf is not None else {}
        block_of = np.empty(self.topology.num_nodes, dtype=int)
        for index, block in enumerate(self._blocks):
            block_of[block] = index
        record = {
            "blocks": [], "block_of": block_of, "started": time.perf_counter()
        }
        solves.append(record)
        tables = solve(self, pairs)
        record["ended"] = time.perf_counter()
        record["block_count"] = len(self._blocks)
        stride = self.topology.num_nodes + 1
        sweeps: List[dict] = []
        previous = len(self._blocks)
        for started, ended, cells, block in record.pop("blocks"):
            if block <= previous:
                sweeps.append(
                    {"started": started, "blocks": 0, "tables": set(), "cells": 0}
                )
            sweep = sweeps[-1]
            sweep["ended"] = ended
            sweep["blocks"] += 1
            sweep["tables"].update(np.unique(cells // stride).tolist())
            sweep["cells"] += len(cells)
            previous = block
        record["sweeps"] = sweeps
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
    """One solve's sweeps in bands 1, 2-10, 11-20, 21-40, ...

    A sweep lasts from its first block evaluation to the next sweep's; the
    last sweep's own bookkeeping falls into the time after the sweeps, with
    the sending-list pass and the construction of the tables.
    """
    sweeps = record["sweeps"]
    starts = [sweep["started"] for sweep in sweeps]
    ends = starts[1:] + [sweeps[-1]["ended"]] if sweeps else []
    print(f"=== kernel sweeps, {title} ===")
    print(
        f"{'sweeps':>9} {'blocks':>7} {'tables evaluated':>17} "
        f"{'cells evaluated':>16} {'ms':>8}"
    )
    low, high = 0, 1
    while low < len(sweeps):
        band = sweeps[low:high]
        ms = sum(ends[low:high]) - sum(starts[low:high])
        print(
            f"{low + 1:>4}-{low + len(band):<4} "
            f"{sum(sweep['blocks'] for sweep in band):>7} "
            f"{len(band[0]['tables']):>8} -> {len(band[-1]['tables']):<6}"
            f"{sum(sweep['cells'] for sweep in band):>16} {ms * 1e3:>8.1f}"
        )
        low, high = high, 10 if high == 1 else 2 * high
    counters = record["counters"]
    total_ms = (record["ended"] - record["started"]) * 1e3
    sweeps_ms = (ends[-1] - starts[0]) * 1e3 if sweeps else 0.0
    print(
        f"{len(sweeps)} sweeps of {record['block_count']} blocks for "
        f"{counters['tables_solved_cold']:.0f} tables "
        f"({counters['jacobi_rounds']:.0f} table-sweeps, "
        f"{counters['node_recomputes']:.0f} node recomputes, "
        f"{counters['candidates_banned']:.0f} candidates banned); "
        f"solve {total_ms:.1f} ms, sweeps {sweeps_ms:.1f} ms\n"
    )


def round_bands(nodes: int) -> None:
    """The sweeps of a dense setup solve and of one in-run refresh."""
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
        f"{len(solves) - 1} refreshes solved)",
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
                if pair[2] > solver.change_distance(pair[0], changed)
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
