"""Ordering-overhead bench: what each delivery guarantee costs in delay.

Runs the Figure-7 workload (full mesh, Pf = 0.06) with ordering off and
at each guarantee level, and renders the end-to-end delivery-delay CDF
per level. The guarantees are pure hold-back stages in front of the
application callback — the transport is untouched — so the delivered
sets are identical and the entire cost is extra delivery delay, with a
monotone story: baseline <= fifo <= causal <= total median delay (fifo
holds only on own-stream gaps, causal additionally on cross-stream
dependencies, total holds every frame until its measured agreement
window, counted from the publish instant, has passed).

Total order is held to the speed of the network: its median stays within
3x the unordered median, and at most 1 % of its releases are stragglers
that left the agreed order (the stall share, printed per level).
"""

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.ordering.spec import LEVELS

from _common import bench_duration, bench_seeds, save_report

COLUMNS = ("baseline",) + LEVELS


def collect(ordering, duration, seeds):
    """Pooled delivery delays, delivered count and stall share (stall
    releases / releases; ``None`` with ordering off) for one setting."""
    delays = []
    delivered = 0
    releases = stalls = 0.0
    for seed in seeds:
        config = ExperimentConfig(
            duration=duration,
            topology_kind="full_mesh",
            failure_probability=0.06,
            ordering=ordering,
        )
        env = build_environment(config, "DCRD", seed)
        summary = env.execute()
        delays.extend(env.ctx.metrics.delays())
        delivered += summary.delivered
        releases += summary.perf.get("ordering.releases", 0.0)
        stalls += summary.perf.get("ordering.stall_releases", 0.0)
    stall_share = stalls / releases if releases else None
    return np.asarray(sorted(delays)), delivered, stall_share


def run():
    duration = bench_duration(30.0)
    seeds = bench_seeds(1)
    results = {}
    for column in COLUMNS:
        ordering = None if column == "baseline" else column
        results[column] = collect(ordering, duration, seeds)
    return results


def render(results):
    pooled = np.concatenate([delays for delays, _, _ in results.values()])
    grid = np.linspace(0.0, float(pooled.max()), 13)
    header = ["delay (s)"] + list(COLUMNS)
    lines = ["  ".join(f"{cell:>9}" for cell in header)]
    lines.append("  ".join("-" * 9 for _ in header))
    for point in grid:
        row = [f"{point:9.4f}"]
        for column in COLUMNS:
            delays = results[column][0]
            row.append(f"{np.searchsorted(delays, point, 'right') / len(delays):9.4f}")
        lines.append("  ".join(row))
    lines.append("")
    lines.append("level      delivered   median      mean       p95  stall share")
    for column in COLUMNS:
        delays, delivered, stall_share = results[column]
        share = "-" if stall_share is None else f"{stall_share:.4f}"
        lines.append(
            f"{column:<9}  {delivered:>9}  {np.median(delays):8.4f}  "
            f"{np.mean(delays):8.4f}  {np.quantile(delays, 0.95):8.4f}  {share:>11}"
        )
    return "\n".join(lines)


def test_ordering_overhead(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ordering", render(results))
    # Reorder-only: no guarantee changes what is delivered.
    delivered = {column: result[1] for column, result in results.items()}
    assert len(set(delivered.values())) == 1, delivered
    # The monotone cost story: each stronger guarantee holds frames at
    # least as long as the weaker one on the identical world.
    medians = [float(np.median(results[column][0])) for column in COLUMNS]
    assert medians == sorted(medians), dict(zip(COLUMNS, medians))
    # Total holds every frame for the spread between its subscriber's
    # fastest and slowest publisher: visibly above the baseline median,
    # yet within 3x of it ...
    assert medians[0] < medians[-1] <= 3.0 * medians[0], medians
    # ... and the window that short still keeps the agreed order whole.
    _, _, total_stall_share = results["total"]
    assert total_stall_share <= 0.01, total_stall_share
