"""Lightweight performance instrumentation (observation only).

:class:`PerfStats` is a named-counter registry with wall-clock timers,
used to answer "where did the run spend its time?" without perturbing the
simulation itself: counters and timers only *observe* — they never feed
back into scheduling, routing, or random-number consumption, so enabling
them cannot change a run's results.

Two kinds of entries share one flat namespace:

* **counters** — monotone event counts (``control_plane.tables_reused``,
  ``control_plane.jacobi_rounds``, …), bumped via :meth:`PerfStats.incr`;
* **timers** — accumulated wall-clock seconds (``*_time_s`` keys), fed by
  the :meth:`PerfStats.timer` context manager or :meth:`PerfStats.add_time`.

The sweep engine (:class:`repro.experiments.sweeps.SweepExecutor`) reports
its counters in the ``sweep.*`` namespace: ``sweep.cells_cached`` /
``sweep.cells_computed`` (grid cells served from the content-addressed
cell cache vs actually run) and ``sweep.checkpoint_writes`` (cells
journalled to the resume log as they finished).

Wall-clock values are inherently non-deterministic, which is why the
:class:`~repro.metrics.summary.MetricsSummary` field carrying a snapshot is
excluded from equality comparison and from ``as_dict()`` (the
reproducibility tests compare those).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional


class PerfStats:
    """A flat registry of named counters and accumulated wall-clock timers."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to counter *name*, creating it at 0."""
        self._values[name] = self._values.get(name, 0.0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* of wall-clock time under *name*."""
        self.incr(name, seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock duration of the ``with`` body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of *name* (0 if never touched)."""
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of all current values."""
        return dict(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"PerfStats({body})"


def format_perf(values: Mapping[str, float], indent: str = "  ") -> str:
    """Render a snapshot as aligned ``name  value`` lines (sorted by name)."""
    if not values:
        return f"{indent}(no perf counters recorded)"
    width = max(len(name) for name in values)
    lines = []
    for name in sorted(values):
        value = values[name]
        if name.endswith("_time_s"):
            rendered = f"{value * 1000.0:.3f} ms"
        elif float(value).is_integer():
            rendered = f"{int(value)}"
        else:
            rendered = f"{value:.4f}"
        lines.append(f"{indent}{name.ljust(width)}  {rendered}")
    return "\n".join(lines)


def time_call(fn, *args, repeats: int = 1, **kwargs):
    """Run ``fn(*args, **kwargs)`` *repeats* times; return (best_seconds, result).

    A tiny best-of-N harness for the control-plane microbenchmarks: the
    minimum over repeats is the standard low-noise wall-clock estimator.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best: Optional[float] = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result
