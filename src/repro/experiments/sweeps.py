"""Parameter sweeps: repeat runs over seeds and sweep one config axis.

The paper averages every data point over 10 random topologies (§IV-A).
:func:`run_repetitions` reproduces that by running one (config, strategy)
cell under several seeds — each seed yields a different topology, workload
placement, and failure schedule — and averaging the summaries.
:func:`sweep` walks one axis (failure probability, node degree, network
size, deadline factor, loss rate …) and produces a :class:`SweepResult`
table directly comparable to a paper figure.

Runs are single-threaded and independent, so ``workers > 1`` fans the grid
out over a process pool — results are byte-identical to the serial order
because every run derives everything from its (config, strategy, seed)
triple.

The incremental sweep engine
----------------------------

:class:`SweepExecutor` owns the resources shared by every sweep of one
driver invocation:

* **one long-lived spawn-context pool** — historically every
  ``sweep()``/``run_repetitions()`` call built and tore down its own pool,
  paying worker spawn + import cost per figure; the executor creates the
  pool lazily on first parallel use and reuses it until :meth:`close`;
* **a content-addressed cell cache** (:class:`~repro.experiments.cache.SweepCache`)
  — each (config, strategy, seed) cell is addressed by a digest that also
  covers the package source fingerprint, so re-running a figure skips
  every unchanged cell and recomputes only invalidated ones, and cached
  results are bit-identical to fresh ones (``fresh=True`` bypasses
  lookups but still repopulates);
* **checkpoint/resume** — completed cells stream to the cache's
  append-only journal *as they finish*, so a killed driver resumes from
  the last finished cell, and one failing cell (reported as
  :class:`SweepWorkerError` with its triple) no longer discards its
  siblings' completed work.

The cell cache is the engine's only memo. Every computed cell is one plain
``run_single(config, strategy, seed)`` call — in a pool worker or in this
process — that builds its own world and shares nothing with the cell the
process ran before it, which is why ``workers > 1`` matches
``workers = 1`` exactly.

Engine counters land in :attr:`SweepExecutor.perf` under the ``sweep.*``
namespace: ``cells_cached``, ``cells_computed``, ``checkpoint_writes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.cache import SweepCache, cell_digest, code_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DEFAULT_STRATEGIES, run_single
from repro.metrics.summary import MetricsSummary, mean_summaries
from repro.perf import PerfStats
from repro.util.errors import ConfigurationError, ReproError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

ProgressHook = Callable[[str], None]

#: One grid cell: (config, strategy, seed).
CellTask = Tuple[ExperimentConfig, str, int]


class SweepWorkerError(ReproError):
    """A sweep cell failed; identifies the (config, strategy, seed) triple.

    Pool workers report failures as bare pickled remote tracebacks, which
    say nothing about *which* cell died. This wrapper re-raises with the
    failing triple attached (and the original exception chained as
    ``__cause__``). Every *other* cell that completed before the failure
    surfaced has already been journalled to the executor's cache, so a
    re-run resumes instead of recomputing them.
    """

    def __init__(
        self, config: ExperimentConfig, strategy: str, seed: int, cause: BaseException
    ) -> None:
        self.config = config
        self.strategy = strategy
        self.seed = seed
        super().__init__(
            f"sweep cell failed: strategy={strategy!r} seed={seed} "
            f"config=[{config.describe()}]: {cause!r}"
        )


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class SweepExecutor:
    """Shared engine behind every sweep of one driver invocation.

    Context-manager owned: the driver creates one executor, passes it to
    every figure/study, and the pool plus cache journal are released on
    exit. ``workers=1`` runs cells in-process (no pool is ever created)
    but still journals checkpoints, and serial and parallel runs execute
    identical per-cell code (:func:`run_single`).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[SweepCache] = None,
        fresh: bool = False,
    ) -> None:
        _require_workers(workers)
        self.workers = workers
        self.cache = cache
        self.fresh = fresh
        self.perf = PerfStats()
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent; the cache journal stays open
        for the owning driver to close)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The shared spawn-context pool, created on first parallel use.

        Spawn rather than fork: fork pools can deadlock when the parent
        holds allocator or BLAS locks at fork time. The spawn cost is paid
        once per driver invocation instead of once per ``sweep()`` call.
        The pool's modules load here, so a process that never runs cells
        in parallel never imports them.
        """
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def counters(self) -> Dict[str, float]:
        """Snapshot of the engine's ``sweep.*`` counters."""
        return self.perf.snapshot()

    # -- execution -----------------------------------------------------
    def run_cells(
        self,
        tasks: Sequence[CellTask],
        progress: Optional[ProgressHook] = None,
    ) -> List[MetricsSummary]:
        """Run a grid of cells; results align with *tasks*.

        Cached cells are served from the cell cache (unless ``fresh``);
        the rest run in task order, serially in-process (``workers=1``)
        or across the shared pool. Each finished cell is journalled
        immediately — the checkpoint that makes a killed or partially
        failed grid resumable.
        """
        tasks = list(tasks)
        results: List[Optional[MetricsSummary]] = [None] * len(tasks)
        digests: List[Optional[str]] = [None] * len(tasks)
        pending: List[int] = []
        fingerprint = code_fingerprint() if self.cache is not None else None
        for index, (config, strategy, seed) in enumerate(tasks):
            if self.cache is not None:
                digests[index] = cell_digest(config, strategy, seed, fingerprint)
                if not self.fresh:
                    cached = self.cache.get(digests[index])
                    if cached is not None:
                        results[index] = cached
                        self.perf.incr("sweep.cells_cached")
                        if progress is not None:
                            progress(
                                f"{strategy} seed={seed} {config.describe()} [cached]"
                            )
                        continue
            pending.append(index)
        if not pending:
            return results  # type: ignore[return-value]
        if self.workers == 1:
            self._run_serial(tasks, pending, digests, results, progress)
        else:
            self._run_pooled(tasks, pending, digests, results)
        return results  # type: ignore[return-value]

    def _run_serial(
        self,
        tasks: List[CellTask],
        pending: List[int],
        digests: List[Optional[str]],
        results: List[Optional[MetricsSummary]],
        progress: Optional[ProgressHook],
    ) -> None:
        for index in pending:
            config, strategy, seed = tasks[index]
            if progress is not None:
                progress(f"{strategy} seed={seed} {config.describe()}")
            try:
                summary = run_single(config, strategy, seed)
            except Exception as exc:
                # Cells journalled before this point stay resumable.
                raise SweepWorkerError(config, strategy, seed, exc) from exc
            self._finish(tasks, index, digests, results, summary)

    def _run_pooled(
        self,
        tasks: List[CellTask],
        pending: List[int],
        digests: List[Optional[str]],
        results: List[Optional[MetricsSummary]],
    ) -> None:
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        futures = {}
        failures: Dict[int, BaseException] = {}
        for index in pending:
            try:
                futures[pool.submit(run_single, *tasks[index])] = index
            except BrokenProcessPool as exc:
                # A worker died while the pool sat idle: the cell fails
                # like one the break catches in flight.
                failures[index] = exc
        # Drain *every* future before reporting failures: completed cells
        # are journalled as they land, so one bad cell costs only itself.
        for future in as_completed(futures):
            index = futures[future]
            try:
                summary = future.result()
            except Exception as exc:
                failures[index] = exc
                continue
            self._finish(tasks, index, digests, results, summary)
        if failures:
            if any(isinstance(exc, BrokenProcessPool) for exc in failures.values()):
                # A broken pool refuses all further work: drop it, so the
                # next grid on this executor builds a fresh one.
                self.close()
            index = min(failures)  # first failing cell in task order
            config, strategy, seed = tasks[index]
            raise SweepWorkerError(
                config, strategy, seed, failures[index]
            ) from failures[index]

    def _finish(
        self,
        tasks: List[CellTask],
        index: int,
        digests: List[Optional[str]],
        results: List[Optional[MetricsSummary]],
        summary: MetricsSummary,
    ) -> None:
        results[index] = summary
        self.perf.incr("sweep.cells_computed")
        if self.cache is not None:
            config, strategy, seed = tasks[index]
            digest = digests[index]
            assert digest is not None  # computed for every task when cached
            self.cache.put(digest, config, strategy, seed, summary)
            self.perf.incr("sweep.checkpoint_writes")


def _execute(
    tasks: Sequence[CellTask],
    workers: int,
    executor: Optional[SweepExecutor],
    progress: Optional[ProgressHook],
) -> List[MetricsSummary]:
    """Run *tasks* on the given executor, or a transient one."""
    if executor is not None:
        return executor.run_cells(tasks, progress=progress)
    with SweepExecutor(workers=workers) as transient:
        return transient.run_cells(tasks, progress=progress)


def run_repetitions(
    config: ExperimentConfig,
    strategy: str,
    seeds: Sequence[int],
    progress: Optional[ProgressHook] = None,
    workers: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> MetricsSummary:
    """Average one (config, strategy) cell over several seeds.

    Pass *executor* to reuse a driver-owned :class:`SweepExecutor` (shared
    pool, cell cache); *workers* is only consulted when no executor is
    given.
    """
    tasks = [(config, strategy, seed) for seed in seeds]
    return mean_summaries(_execute(tasks, workers, executor, progress))


@dataclass
class SweepResult:
    """One figure's worth of data: metric values on a swept axis.

    ``cells[x][strategy]`` is the averaged :class:`MetricsSummary` of one
    data point.
    """

    name: str
    x_label: str
    x_values: List[object] = field(default_factory=list)
    strategies: List[str] = field(default_factory=list)
    cells: Dict[object, Dict[str, MetricsSummary]] = field(default_factory=dict)

    def series(self, strategy: str, metric: str) -> List[float]:
        """One curve: *metric* of *strategy* across the swept axis."""
        return [
            getattr(self.cells[x][strategy], metric) for x in self.x_values
        ]

    def cell(self, x: object, strategy: str) -> MetricsSummary:
        """The summary of one data point."""
        return self.cells[x][strategy]

    def metrics_table(self, metric: str) -> List[List[object]]:
        """Rows ``[x, v(strategy_1), v(strategy_2), ...]`` for one metric."""
        rows: List[List[object]] = []
        for x in self.x_values:
            row: List[object] = [x]
            row.extend(getattr(self.cells[x][s], metric) for s in self.strategies)
            rows.append(row)
        return rows


def sweep(
    name: str,
    x_label: str,
    configs: Mapping[object, ExperimentConfig],
    seeds: Sequence[int],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    workers: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Run a full (axis x strategy) grid and collect a :class:`SweepResult`.

    ``workers > 1`` (or an *executor* with workers) runs the *entire grid*
    (every (x, strategy, seed) triple) across a process pool; results are
    identical to the serial run, just faster. With an executor carrying a
    cell cache, unchanged cells are served from the journal instead of
    recomputed.
    """
    result = SweepResult(
        name=name,
        x_label=x_label,
        x_values=list(configs.keys()),
        strategies=list(strategies),
    )
    grid = [
        (x, strategy, seed)
        for x in configs
        for strategy in strategies
        for seed in seeds
    ]
    tasks = [(configs[x], strategy, seed) for x, strategy, seed in grid]
    outputs = _execute(tasks, workers, executor, progress)
    buckets: Dict[Tuple[object, str], List[MetricsSummary]] = {}
    for (x, strategy, _), summary in zip(grid, outputs):
        buckets.setdefault((x, strategy), []).append(summary)
    for x in configs:
        result.cells[x] = {
            strategy: mean_summaries(buckets[(x, strategy)])
            for strategy in strategies
        }
    return result
