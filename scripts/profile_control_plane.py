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

Usage::

    PYTHONPATH=src python scripts/profile_control_plane.py [--top N]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "benchmarks")]

from bench_kernel_performance import control_plane_workload  # noqa: E402
from repro.core.computation import ControlPlaneSolver  # noqa: E402
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--top", type=int, default=20, help="profile entries to print"
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
