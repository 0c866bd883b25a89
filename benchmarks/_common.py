"""Shared helpers for the benchmark files.

``bench_figures.py`` regenerates every figure and study at a reduced scale
(identical code paths, shorter simulated duration, fewer topologies) and
the other benches measure the implementation; each writes its tables to
``benchmarks/output/<name>.txt`` so the numbers can be inspected and
compared against EXPERIMENTS.md.

Scale knobs can be raised via environment variables:

* ``REPRO_BENCH_DURATION`` — simulated publish window per run (seconds);
* ``REPRO_BENCH_SEEDS`` — number of repeated topologies per data point.
"""

from __future__ import annotations

import os
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_duration(default: float) -> float:
    """The per-run simulated duration, overridable via the environment."""
    return float(os.environ.get("REPRO_BENCH_DURATION", default))


def bench_seeds(default: int) -> tuple:
    """The seed tuple, overridable via the environment."""
    count = int(os.environ.get("REPRO_BENCH_SEEDS", default))
    return tuple(range(count))


def save_report(name: str, text: str) -> Path:
    """Persist a rendered table and echo it to stdout."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
