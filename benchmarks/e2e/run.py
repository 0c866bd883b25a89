#!/usr/bin/env python3
"""One-command end-to-end benchmark (see README.md beside this file).

``python3 benchmarks/e2e/run.py`` runs every workload, each in a fresh
child process, one at a time, untraced and then traced.
``--workload NAME --seed N --seconds S --trace 0|1`` runs one pass of one
workload in this process and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro import probes  # noqa: E402

import layers  # noqa: E402
from machine import REFERENCE_S, calibrate  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Rep, peak_rss_mb  # noqa: E402

#: ``run_seconds`` of BENCHMARK.json. Each workload's repetition count is
#: fixed (``reps``), sized so that its timed regions sum to about this
#: much on the reference machine; ``--seconds`` scales the count.
DEFAULT_SECONDS = 8
DEFAULT_SEED = 1

#: ``setup_s`` is the median of at least this many builds; cheap builds
#: are repeated up to MAX_SETUPS times while the extra ones stay under
#: EXTRA_SETUP_BUDGET_S seconds in total.
MIN_SETUPS = 3
MAX_SETUPS = 7
EXTRA_SETUP_BUDGET_S = 1.0

#: Clock-derived metrics, reported at reference machine speed (machine.py).
HOST_TIME = ("setup_s", "pairs_per_s", "cpu_us_per_pair")


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def spread(values: Sequence[float]) -> str:
    """``min q1 median q3`` of *values*, for the result header."""
    if len(values) < 2:
        return f"n=1 value {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min {min(values):.6g} q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g}"


class Result:
    """What one pass reports: metrics, check failures, operation counts."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def last_line(self) -> str:
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": max(self.attempted, 1),
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def _guarded_rep(workload: Any, seed: int, result: Result, reps: List[Rep]) -> Optional[Rep]:
    """One repetition; one that raises fails every pair it would have attempted."""
    try:
        rep = workload.rep(seed)
    except Exception:  # the pass must still report what it has
        lost = reps[0].expected if reps else 1
        result.attempted += lost
        result.failed += lost
        result.problems.append("a repetition raised:\n" + traceback.format_exc())
        return None
    result.attempted += rep.expected
    result.problems.extend(rep.problems)
    return rep


def untraced_pass(workload: Any, seed: int, seconds: float) -> Result:
    """Repeat build → execute with one seed; report medians over repetitions."""
    result = Result()
    reps: List[Rep] = []
    for _ in range(max(1, round(workload.reps * seconds / DEFAULT_SECONDS))):
        rep = _guarded_rep(workload, seed, result, reps)
        if rep is None:
            return result
        reps.append(rep)
    builds = [rep.setup for rep in reps]
    extra = 0.0
    while len(builds) < MIN_SETUPS or (
        len(builds) < MAX_SETUPS and extra + builds[-1].wall_s < EXTRA_SETUP_BUDGET_S
    ):
        builds.append(workload.setup_only(seed, after=builds[-1]))
        extra += builds[-1].wall_s
    setups = [build.reference_wall_s for build in builds]

    per_rep = [layers.end_to_end(rep) for rep in reps]
    if workload.substrate == "sim" and any(rep.simulated != reps[0].simulated for rep in reps):
        result.problems.append(
            "simulated metrics differ between repetitions of one seed: "
            + "; ".join(str(rep.simulated) for rep in reps)
        )
    values = {name: statistics.median(row[name] for row in per_rep) for name in per_rep[0]}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    for name, unit, _better, _bound in layers.END_TO_END:
        result.metrics[name] = (values[name], unit)
    result.notes.append(
        f"repetitions={len(reps)} timed_region_s={[round(rep.timed.wall_s, 4) for rep in reps]} "
        f"machine_speed={[round(rep.timed.speed, 3) for rep in reps]} "
        f"pairs_per_rep={reps[0].expected} delay_samples={reps[0].delay_samples} "
        f"undelivered_pairs_per_rep={reps[0].expected - reps[0].delivered} "
        f"delay_p99_s={statistics.median(rep.delay_p99_s for rep in reps):.6f}"
    )
    result.notes.append(f"setup_s: {spread(setups)}")
    for name in HOST_TIME[1:]:
        result.notes.append(f"{name}: {spread([row[name] for row in per_rep])}")
    return result


def traced_pass(workload: Any, seed: int) -> Result:
    """One untraced and one traced repetition; report the per-layer metrics."""
    result = Result()
    reps: List[Rep] = []
    untraced = _guarded_rep(workload, seed, result, reps)
    if untraced is None:
        return result
    reps.append(untraced)
    recorder = Recorder()
    recorder.install()
    probes.attach(recorder.probe_counts)
    try:
        traced = _guarded_rep(workload, seed, result, reps)
    finally:
        probes.detach(recorder.probe_counts)
        recorder.restore()
    if traced is None:
        return result
    if workload.substrate == "sim" and traced.simulated != untraced.simulated:
        result.problems.append(
            f"the traced run diverged from the untraced one: {traced.simulated} "
            f"vs {untraced.simulated}"
        )
    window = recorder.window(traced.timed.started, traced.timed.ended)
    sim_quantiles = (
        workload.sim_delay_quantiles(traced) if workload.substrate == "live" else None
    )
    values = layers.per_layer(traced, untraced, window, recorder, sim_quantiles)
    for name, unit, _better in layers.PER_LAYER:
        result.metrics[name] = (values[name], unit)
    result.notes.append(
        f"timed_region_s untraced={untraced.timed.wall_s:.4f} traced={traced.timed.wall_s:.4f} "
        f"spans={len(recorder.starts)}"
    )
    if recorder.absent:
        result.notes.append("targets not found (their metrics read -1): " + ", ".join(recorder.absent))
    return result


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    workload = BY_NAME[name]
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={trace} ({workload.substrate})")
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} commit={commit()} "
        f"calibration_before_s={calibrate():.4f} (reference {REFERENCE_S})"
    )
    result = traced_pass(workload, seed) if trace else untraced_pass(workload, seed, seconds)
    for note in result.notes:
        print("# " + note)
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric:32s} {value:16.6f} {unit}")
    for problem in result.problems:
        print("CHECK FAILED: " + problem)
    print(f"# calibration_after_s={calibrate():.4f}")
    print(result.last_line())
    return 1 if result.problems else 0


def run_all(seed: int, seconds: float, passes: Sequence[int]) -> int:
    """Every workload in its own child process, one at a time."""
    status = 0
    lines: Dict[str, Any] = {}
    for workload in WORKLOADS:
        for trace in passes:
            done = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload.name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ],
                capture_output=True, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            if done.returncode == 0:
                lines[f"{workload.name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({"correct": status == 0, "passes": lines}))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--selftest-sensitivity", action="store_true",
        help="slow one layer by 20%% of its self time and show which workload notices",
    )
    args = parser.parse_args(argv)
    if args.selftest_sensitivity:
        import sensitivity

        return sensitivity.main(args.seed)
    trace = 1 if args.traced else args.trace
    if args.workload is None:
        return run_all(args.seed, args.seconds, (0, 1) if trace is None else (trace,))
    return run_one(args.workload, args.seed, args.seconds, trace or 0)


if __name__ == "__main__":
    sys.exit(main())
