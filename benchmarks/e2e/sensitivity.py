"""Sensitivity self-test: does the benchmark notice a slower layer?

For each case a traced repetition of the *named* workload gives the
layer's self time S and call count N. The layer's public methods are then
wrapped with a shim that costs 0.2·S/N per call (its own call overhead,
calibrated, plus a busy-wait paid out in 20 µs chunks) and the named and
the *bypass* workload are measured untraced, alternating baseline and
slowed repetitions. The watched metric of the named workload must move by
at least half of what adding 0.2·S to its timed region predicts; the bypass
workload's must stay inside the metric's regression bound.

Prints the report in Markdown; the checked-in copy is SENSITIVITY.md.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable, List, Sequence, Tuple

from repro import probes

import layers
from tracing import TARGETS, Patcher, Recorder
from workloads import BY_NAME, Rep

#: ``(module, span prefix, named workload, bypass workload, metric that
#: must move, baseline/slowed pairs on the named workload)``. On
#: ``live_ring`` the metric is ``cpu_us_per_pair``: its publish loop is
#: paced, so extra CPU work eats idle time before it costs throughput.
CASES: Tuple[Tuple[str, str, str, str, str, int], ...] = (
    ("overlay.links", "links", "dense_dataplane", "refresh_controlplane", "pairs_per_s", 5),
    ("core.computation", "solver", "refresh_controlplane", "dense_dataplane", "pairs_per_s", 3),
    ("live.codec", "codec", "live_ring", "dense_dataplane", "cpu_us_per_pair", 7),
)

INJECTED_SHARE = 0.2
BYPASS_PAIRS = 3
SPIN_CHUNK_S = 20e-6
BOUNDS = {name: bound for name, _unit, _better, bound in layers.END_TO_END}


class Slowdown(Patcher):
    """Wraps a layer's targets with a fixed busy-wait per call."""

    def __init__(self, spin_s: float) -> None:
        super().__init__()
        self.spin_s = spin_s
        self._debt = [0.0]

    def install(self, prefix: str) -> None:
        for name, module_name, path in TARGETS:
            if name.split(".", 1)[0] == prefix:
                self.patch(module_name, path, self.wrapper)

    def wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        debt, spin, clock = self._debt, self.spin_s, perf_counter

        def slowed(*args: Any, **kwargs: Any) -> Any:
            owed = debt[0] + spin
            if owed >= SPIN_CHUNK_S:
                end = clock() + owed
                while clock() < end:
                    pass
                owed = 0.0
            debt[0] = owed
            return fn(*args, **kwargs)

        return slowed


def shim_overhead_s(calls: int = 200_000) -> float:
    """What one call through a zero-delay :class:`Slowdown` shim costs."""

    def noop() -> None:
        return None

    shim = Slowdown(0.0).wrapper(noop)
    best = []
    for fn in (noop, shim):
        times = []
        for _ in range(5):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        best.append(min(times))
    return max(0.0, (best[1] - best[0]) / calls)


def traced_layer(workload: Any, prefix: str, seed: int) -> Tuple[float, int, float]:
    """``(self seconds, calls, traced timed region)`` of one layer on *workload*."""
    recorder = Recorder()
    recorder.install()
    probes.attach(recorder.probe_counts)
    try:
        rep = workload.rep(seed)
    finally:
        probes.detach(recorder.probe_counts)
        recorder.restore()
    window = recorder.window(rep.timed.started, rep.timed.ended)
    return window.self_time(prefix), window.calls(prefix), rep.timed.wall_s


def alternate(
    workload: Any, seed: int, prefix: str, spin_s: float, pairs: int
) -> Tuple[List[Rep], List[Rep]]:
    """Baseline and slowed repetitions of *workload*, interleaved."""
    base: List[Rep] = []
    slowed: List[Rep] = []
    for _ in range(pairs):
        base.append(workload.rep(seed))
        slowdown = Slowdown(spin_s)
        slowdown.install(prefix)
        try:
            slowed.append(workload.rep(seed))
        finally:
            slowdown.restore()
    return base, slowed


def median_of(reps: Sequence[Rep], metric: str) -> float:
    return statistics.median(layers.end_to_end(rep)[metric] for rep in reps)


def run_case(
    module: str, prefix: str, named: str, bypass: str, metric: str, pairs: int,
    seed: int, overhead_s: float,
) -> bool:
    self_s, calls, traced_wall = traced_layer(BY_NAME[named], prefix, seed)
    per_call = INJECTED_SHARE * self_s / calls
    spin = max(0.0, per_call - overhead_s)
    injected = calls * (overhead_s + spin)
    print(f"## `{module}` slowed on `{named}`, bypass `{bypass}`, watching `{metric}`\n")
    print(
        f"Traced `{named}`: `{prefix}.*` self time {self_s:.4f} s over {calls} calls in a "
        f"{traced_wall:.3f} s timed region. Injected per call: {per_call * 1e6:.3f} us "
        f"(shim {overhead_s * 1e6:.3f} us + busy-wait {spin * 1e6:.3f} us), "
        f"{injected:.4f} s per repetition.\n"
    )
    print("| workload | role | repetitions | metric | baseline | slowed | change | expected | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")

    def row(workload: str, role: str, name: str, base: List[Rep], slowed: List[Rep],
            expected: str, verdict: str) -> None:
        before, after = median_of(base, name), median_of(slowed, name)
        print(
            f"| `{workload}` | {role} | {len(base)}+{len(slowed)} | `{name}` | {before:.1f} | "
            f"{after:.1f} | {after / before - 1.0:+.2%} | {expected} | {verdict} |"
        )

    base, slowed = alternate(BY_NAME[named], seed, prefix, spin, pairs)
    if metric == "pairs_per_s":
        # More seconds for the same pairs: the rate falls.
        predicted = -injected / (statistics.median(r.timed.wall_s for r in base) + injected)
    else:
        # More CPU seconds for the same pairs: the cost per pair rises.
        predicted = injected / statistics.median(r.timed.cpu_s for r in base)
    change = median_of(slowed, metric) / median_of(base, metric) - 1.0
    detected = change / predicted >= 0.5
    row(named, "named", metric, base, slowed,
        f"{predicted:+.2%} predicted, at least {predicted / 2:+.2%}",
        "detected" if detected else "NOT detected")
    if metric != "pairs_per_s":
        row(named, "named", "pairs_per_s", base, slowed, "for the record", "-")
    by_base, by_slowed = alternate(BY_NAME[bypass], seed, prefix, spin, BYPASS_PAIRS)
    worse = median_of(by_slowed, metric) / median_of(by_base, metric) - 1.0
    if metric == "pairs_per_s":
        worse = -worse
    quiet = worse <= BOUNDS[metric]
    row(bypass, "bypass", metric, by_base, by_slowed,
        f"inside the {BOUNDS[metric]:.0%} bound", "absent" if quiet else "NOT absent")
    print(
        f"\n`setup_s` of `{bypass}`: {median_of(by_base, 'setup_s'):.3f} s baseline, "
        f"{median_of(by_slowed, 'setup_s'):.3f} s slowed.\n"
    )
    return detected and quiet


def main(seed: int) -> int:
    overhead_s = shim_overhead_s()
    print("# Sensitivity self-test\n")
    print(
        f"`python3 benchmarks/e2e/run.py --selftest-sensitivity --seed {seed}`: each layer is slowed by "
        f"{INJECTED_SHARE:.0%} of its traced self time; see `sensitivity.py` for the method.\n"
    )
    passed = [run_case(*case, seed, overhead_s) for case in CASES]
    print(f"Result: {sum(passed)} of {len(passed)} injected slowdowns detected on the named workload and absent on the bypass workload.")
    return 0 if all(passed) else 1
