#!/usr/bin/env python3
"""Regenerate every figure of the paper and dump the tables.

This is the driver behind EXPERIMENTS.md: it runs Figures 2–8, the
ablations and the extension studies — every entry of
:data:`repro.experiments.figures.ARTIFACTS` — at a configurable scale,
writes all tables to ``results/`` (and stdout) and reports each entry's
claims as PASS/FAIL lines (a failed claim is reported, not an error).
The paper's full scale is ``--duration 7200 --repetitions 10``; the
EXPERIMENTS.md numbers were recorded with the defaults below, which keep
the wall-clock in the tens-of-minutes range on one core.

Re-runs are incremental: every (config, strategy, seed) grid cell is
content-addressed and journalled under ``<out>/.sweep_cache/`` (see
docs/SWEEPS.md), so an unchanged cell is never recomputed — a warm re-run
of any figure costs seconds, a killed run resumes from the last completed
cell, and only figures whose cells changed rewrite their output tables.
``--fresh`` bypasses the cache (and repopulates it), ``--no-cache``
disables it entirely, and ``--workers N`` fans the grids out over one
shared spawn pool reused across all figures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.cache import SweepCache
from repro.experiments.figures import ARTIFACTS
from repro.experiments.report import render_cache_stats
from repro.experiments.sweeps import SweepExecutor
from repro.experiments.validation import render_outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument(
        "--only", nargs="*", default=None, choices=list(ARTIFACTS),
        metavar="NAME", help=f"subset of {{{','.join(ARTIFACTS)}}} to run",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size shared by every figure (1 = in-process)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="bypass the cell cache: recompute every cell (and repopulate)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the cell cache and journal entirely",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cell-cache directory (default: <out>/.sweep_cache)",
    )
    args = parser.parse_args()
    args.out.mkdir(exist_ok=True)
    wanted = set(args.only) if args.only else set(ARTIFACTS)

    cache = None
    if not args.no_cache:
        cache = SweepCache(args.cache_dir or args.out / ".sweep_cache")

    def progress(line: str) -> None:
        print(f"    …{line}", file=sys.stderr)

    start = time.time()
    with SweepExecutor(
        workers=args.workers, cache=cache, fresh=args.fresh
    ) as executor:
        for artifact in ARTIFACTS.values():
            if artifact.name not in wanted:
                continue
            before = executor.counters()
            result = artifact.run(
                args.duration, args.repetitions, progress=progress, executor=executor
            )
            after = executor.counters()
            computed, cached = (
                after.get(key, 0.0) - before.get(key, 0.0)
                for key in ("sweep.cells_computed", "sweep.cells_cached")
            )
            for name, text in artifact.tables(result).items():
                # A table none of whose cells were recomputed this run
                # (every cell came from the cache) is byte-identical, so
                # the existing file is left untouched and the skip reported.
                path = args.out / f"{name}.txt"
                body = text + "\n"
                if computed == 0 and path.exists() and path.read_text() == body:
                    print(
                        f"[{name}] unchanged ({int(cached)} cells cached); "
                        f"kept {path}",
                        file=sys.stderr,
                    )
                else:
                    path.write_text(body)
                print(f"\n===== {name} =====\n{text}")
            outcomes = artifact.verify(result)
            if outcomes:
                print(render_outcomes(outcomes))
        print(render_cache_stats(executor.counters()))
    if cache is not None:
        cache.close()
    print(f"\nTotal wall-clock: {time.time() - start:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
