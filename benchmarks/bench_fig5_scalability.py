"""Figure 5 at mega scale: DCRD alone on 1000 to 5000 brokers.

Figure 5 itself (network size 10 → 160 at degree 8, Pf = 0.06) runs with
every other figure and study in ``bench_figures.py``.

Set ``REPRO_BENCH_MEGA_FIG5=1`` to run the tier: 1000-, 2000- and
5000-node overlays (the flat index-addressed data
plane's design point), reporting the kernel event rate next to the
delivery metrics, with the time to build the world (topology, workload,
the setup solve of every ``<d, r>`` table) and the time to execute it
reported separately. ``peak_rss_mb`` is the process's ``ru_maxrss`` after
each size; the sizes run in ascending order in one process, so each row
reads the peak of its own size. ``chunks`` is the number of batches the
setup solve ran in (``control_plane.chunks``). The mega tier runs DCRD
directly rather than the five-strategy sweep, on a thinned workload (few
topics, sparse subscriptions, one monitoring epoch).
"""

import os
import resource
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment

from _common import bench_duration, bench_seeds, save_report

MEGA = bool(os.environ.get("REPRO_BENCH_MEGA_FIG5"))
MEGA_SIZES = (1000, 2000, 5000)


def mega_config(size: int) -> ExperimentConfig:
    """Figure-5 hazard shape at mega scale, thinned to data-plane cost."""
    return ExperimentConfig(
        duration=bench_duration(5.0),
        drain=4.0,
        topology_kind="regular",
        degree=8,
        num_nodes=size,
        failure_probability=0.06,
        num_topics=4,
        ps_range=(0.01, 0.03),
        monitor_period=300.0,
    )


def run_mega():
    rows = {}
    for size in MEGA_SIZES:
        config = mega_config(size)
        for seed in bench_seeds(1):
            start = time.perf_counter()
            env = build_environment(config, "DCRD", seed)
            built = time.perf_counter()
            summary = env.execute()
            finished = time.perf_counter()
            del env
            # ru_maxrss is in KiB on Linux.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rows[size] = summary, built - start, finished - built, peak
    lines = [
        "Figure 5 mega tier: DCRD at degree 8, Pf = 0.06",
        f"{'nodes':>6} {'delivery':>9} {'qos':>9} {'build_s':>8} {'execute_s':>9} "
        f"{'peak_rss_mb':>11} {'events/s':>10} {'events':>9} {'elided':>7} "
        f"{'fallbacks':>9} {'tables':>7} {'chunks':>6} {'jacobi_rounds':>13} "
        f"{'banned':>9}",
    ]
    for size, (summary, build_s, execute_s, peak) in rows.items():
        perf = summary.perf
        lines.append(
            f"{size:>6} {summary.delivery_ratio:>9.4f} "
            f"{summary.qos_delivery_ratio:>9.4f} "
            f"{build_s:>8.2f} {execute_s:>9.2f} {peak:>11.1f} "
            f"{perf.get('sim.events_per_s', 0.0):>10.0f} "
            f"{perf['sim.events_processed']:>9.0f} "
            f"{perf['arq.timers_elided']:>7.0f} "
            f"{perf['flat.dir_fallbacks']:>9.0f} "
            f"{perf['control_plane.tables_solved_cold']:>7.0f} "
            f"{perf['control_plane.chunks']:>6.0f} "
            f"{perf['control_plane.jacobi_rounds']:>13.0f} "
            f"{perf['control_plane.candidates_banned']:>9.0f}"
        )
    save_report("fig5_mega", "\n".join(lines))
    return {size: summary for size, (summary, _, _, _) in rows.items()}


@pytest.mark.skipif(not MEGA, reason="set REPRO_BENCH_MEGA_FIG5=1 to run")
def test_figure5_mega(benchmark):
    rows = benchmark.pedantic(run_mega, rounds=1, iterations=1)
    for size, summary in rows.items():
        # DCRD keeps its delivery guarantee at the mega scale, and the
        # whole run stays on the flat fast path (no facade fallbacks).
        assert summary.delivery_ratio > 0.97, size
        assert summary.perf["flat.dir_fallbacks"] == 0.0, size
