"""Every figure and study of the table, at reduced scale, with its claims.

One test per entry of :data:`repro.experiments.figures.ARTIFACTS`: the
entry runs at ``--duration 20 --repetitions 2`` under the same scaling
rules as ``scripts/run_experiments.py`` (``REPRO_BENCH_DURATION`` /
``REPRO_BENCH_SEEDS`` override both), writes its tables to
``benchmarks/output/<table>.txt``, and fails if any of its claims fails.
"""

import pytest

from repro.experiments.figures import ARTIFACTS
from repro.experiments.validation import render_outcomes

from _common import bench_duration, bench_seeds, save_report


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_claims(benchmark, name):
    artifact = ARTIFACTS[name]
    result = benchmark.pedantic(
        artifact.run,
        args=(bench_duration(20.0), len(bench_seeds(2))),
        rounds=1,
        iterations=1,
    )
    for table, text in artifact.tables(result).items():
        save_report(table, text)
    outcomes = artifact.verify(result)
    assert all(outcome.passed for outcome in outcomes), render_outcomes(outcomes)
