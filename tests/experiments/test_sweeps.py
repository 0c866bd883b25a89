"""Unit tests for repetition averaging and axis sweeps."""

import pytest

from repro.experiments.cache import SweepCache, cell_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.experiments.sweeps import (
    SweepExecutor,
    SweepWorkerError,
    run_repetitions,
    sweep,
)
from repro.util.errors import ConfigurationError

FAST = ExperimentConfig(duration=6.0, drain=2.0, num_topics=2, num_nodes=6)


def test_run_repetitions_averages_ratios():
    merged = run_repetitions(FAST, "DCRD", seeds=(1, 2))
    a = run_single(FAST, "DCRD", seed=1)
    b = run_single(FAST, "DCRD", seed=2)
    assert merged.delivery_ratio == pytest.approx(
        (a.delivery_ratio + b.delivery_ratio) / 2
    )
    assert merged.expected_deliveries == a.expected_deliveries + b.expected_deliveries


def test_run_repetitions_reports_progress():
    lines = []
    run_repetitions(FAST, "DCRD", seeds=(1,), progress=lines.append)
    assert len(lines) == 1 and "DCRD" in lines[0]


def test_sweep_grid_complete():
    configs = {
        0.0: FAST,
        0.1: FAST.with_updates(failure_probability=0.1),
    }
    result = sweep(
        "test", "Pf", configs, seeds=(1,), strategies=("DCRD", "D-Tree")
    )
    assert result.x_values == [0.0, 0.1]
    assert result.strategies == ["DCRD", "D-Tree"]
    for x in result.x_values:
        for strategy in result.strategies:
            assert result.cell(x, strategy).strategy == strategy


def test_sweep_series_extraction():
    configs = {0.0: FAST, 0.1: FAST.with_updates(failure_probability=0.1)}
    result = sweep("test", "Pf", configs, seeds=(1,), strategies=("DCRD",))
    series = result.series("DCRD", "delivery_ratio")
    assert len(series) == 2
    assert all(0.0 <= v <= 1.0 for v in series)


def test_parallel_workers_match_serial_results():
    configs = {0.0: FAST, 0.08: FAST.with_updates(failure_probability=0.08)}
    serial = sweep("s", "pf", configs, seeds=(1, 2), strategies=("DCRD",))
    parallel = sweep(
        "s", "pf", configs, seeds=(1, 2), strategies=("DCRD",), workers=2
    )
    for x in serial.x_values:
        assert (
            serial.cell(x, "DCRD").as_dict() == parallel.cell(x, "DCRD").as_dict()
        )


def test_parallel_repetitions_match_serial():
    serial = run_repetitions(FAST, "DCRD", seeds=(1, 2))
    parallel = run_repetitions(FAST, "DCRD", seeds=(1, 2), workers=2)
    assert serial.as_dict() == parallel.as_dict()


@pytest.mark.parametrize("workers", [0, -1])
def test_run_repetitions_rejects_bad_worker_counts(workers):
    with pytest.raises(ConfigurationError, match="workers"):
        run_repetitions(FAST, "DCRD", seeds=(1,), workers=workers)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_bad_worker_counts(workers):
    with pytest.raises(ConfigurationError, match="workers"):
        sweep("s", "pf", {0.0: FAST}, seeds=(1,), strategies=("DCRD",),
              workers=workers)


def test_worker_failure_names_the_failing_cell():
    # An unknown strategy makes the remote cell raise; the pool must not
    # surface a bare pickled traceback but the annotated wrapper.
    with pytest.raises(SweepWorkerError) as excinfo:
        run_repetitions(FAST, "NoSuchStrategy", seeds=(1, 2), workers=2)
    error = excinfo.value
    assert error.strategy == "NoSuchStrategy"
    assert error.seed in (1, 2)
    assert error.config == FAST
    assert "NoSuchStrategy" in str(error)
    assert error.__cause__ is not None


def test_sweep_worker_failure_names_the_failing_cell():
    configs = {0.0: FAST}
    with pytest.raises(SweepWorkerError) as excinfo:
        sweep("s", "pf", configs, seeds=(1,), strategies=("NoSuchStrategy",),
              workers=2)
    assert excinfo.value.strategy == "NoSuchStrategy"
    assert excinfo.value.seed == 1


def test_serial_failure_is_wrapped_and_names_the_cell():
    with pytest.raises(SweepWorkerError) as excinfo:
        run_repetitions(FAST, "NoSuchStrategy", seeds=(1,))
    assert excinfo.value.strategy == "NoSuchStrategy"
    assert excinfo.value.seed == 1
    assert excinfo.value.__cause__ is not None


@pytest.mark.parametrize("workers", [0, -2])
def test_executor_rejects_bad_worker_counts(workers):
    with pytest.raises(ConfigurationError, match="workers"):
        SweepExecutor(workers=workers)


def test_executor_reuses_one_pool_across_sweeps():
    configs = {0.0: FAST}
    with SweepExecutor(workers=2) as executor:
        sweep("s", "pf", configs, seeds=(1,), strategies=("DCRD",),
              executor=executor)
        pool = executor._pool
        assert pool is not None
        sweep("s", "pf", configs, seeds=(2,), strategies=("DCRD",),
              executor=executor)
        assert executor._pool is pool  # same pool, no churn
    assert executor._pool is None  # released on exit


def test_executor_serves_repeat_grid_from_cache(tmp_path):
    configs = {0.0: FAST, 0.08: FAST.with_updates(failure_probability=0.08)}
    kwargs = dict(seeds=(1, 2), strategies=("DCRD", "D-Tree"))
    cache = SweepCache(tmp_path / "cache")
    with SweepExecutor(cache=cache) as executor:
        cold = sweep("s", "pf", configs, executor=executor, **kwargs)
        assert executor.counters()["sweep.cells_computed"] == 8
        warm = sweep("s", "pf", configs, executor=executor, **kwargs)
        counters = executor.counters()
    assert counters["sweep.cells_cached"] == 8
    assert counters["sweep.cells_computed"] == 8  # nothing recomputed
    assert counters["sweep.checkpoint_writes"] == 8
    for x in cold.x_values:
        for strategy in cold.strategies:
            assert (
                warm.cell(x, strategy).as_dict()
                == cold.cell(x, strategy).as_dict()
            )


GRID = [
    (config, strategy, seed)
    for config in (FAST, FAST.with_updates(failure_probability=0.08))
    for strategy in ("DCRD", "D-Tree")
    for seed in (1, 2)
]


def test_executor_warm_sharing_matches_plain_runs(tmp_path):
    # The engine must be invisible: serial or pooled, computed or served
    # from the cache, every cell is the plain run_single result.
    want = [run_single(*task).as_dict() for task in GRID]
    with SweepExecutor(cache=SweepCache(tmp_path / "c1")) as executor:
        serial = executor.run_cells(GRID)
        cached = executor.run_cells(GRID)
        assert executor.counters()["sweep.cells_cached"] == len(GRID)
    with SweepExecutor(workers=2, cache=SweepCache(tmp_path / "c2")) as executor:
        pooled = executor.run_cells(GRID)
    for got in (serial, cached, pooled):
        assert [summary.as_dict() for summary in got] == want


def test_pooled_results_align_with_a_reversed_grid():
    # Results follow the caller's task order, whatever order cells finish.
    with SweepExecutor(workers=2) as executor:
        forward = executor.run_cells(GRID)
        backward = executor.run_cells(GRID[::-1])
    assert [s.strategy for s in backward] == [task[1] for task in GRID[::-1]]
    assert [s.as_dict() for s in backward] == [s.as_dict() for s in forward[::-1]]
    assert len({repr(s.as_dict()) for s in forward}) == len(GRID)  # all distinct


def test_executor_recovers_from_a_killed_worker():
    configs = {0.0: FAST}
    kwargs = dict(seeds=(1, 2), strategies=("DCRD",))
    plain = sweep("s", "pf", configs, **kwargs)
    with SweepExecutor(workers=2) as executor:
        sweep("s", "pf", configs, executor=executor, **kwargs)  # spawn workers
        for process in list(executor._pool._processes.values()):
            process.kill()
            process.join(timeout=30)
        with pytest.raises(SweepWorkerError) as excinfo:
            sweep("s", "pf", configs, executor=executor, **kwargs)
        # The first unfinished cell, not a bare BrokenProcessPool.
        assert (excinfo.value.strategy, excinfo.value.seed) == ("DCRD", 1)
        again = sweep("s", "pf", configs, executor=executor, **kwargs)
    assert again.cell(0.0, "DCRD").as_dict() == plain.cell(0.0, "DCRD").as_dict()


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_grid_journals_completed_cells(tmp_path, workers):
    configs = {0.0: FAST}
    cache = SweepCache(tmp_path / "cache")
    with SweepExecutor(workers=workers, cache=cache) as executor:
        with pytest.raises(SweepWorkerError) as excinfo:
            sweep("s", "pf", configs, seeds=(1,),
                  strategies=("DCRD", "NoSuchStrategy"), executor=executor)
    assert excinfo.value.strategy == "NoSuchStrategy"
    cache.close()
    # The good cell survived the sibling's failure and is resumable.
    resumed = SweepCache(tmp_path / "cache")
    assert resumed.get(cell_digest(FAST, "DCRD", 1)) is not None
    with SweepExecutor(cache=resumed) as executor:
        sweep("s", "pf", configs, seeds=(1,), strategies=("DCRD",),
              executor=executor)
        assert executor.counters().get("sweep.cells_computed", 0) == 0


def test_sweep_metrics_table_layout():
    configs = {0.0: FAST}
    result = sweep("test", "Pf", configs, seeds=(1,), strategies=("DCRD", "ORACLE"))
    rows = result.metrics_table("qos_delivery_ratio")
    assert len(rows) == 1
    assert rows[0][0] == 0.0
    assert len(rows[0]) == 3
