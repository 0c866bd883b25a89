#!/usr/bin/env python3
"""Which lines of ``src/repro`` do the production drivers reach?

Runs every production driver in this one process under
:func:`sys.settrace`, at reduced scale, and records each line of
``src/repro`` that executes:

* ``scripts/run_experiments.py`` (every figure and extension study) at
  2 simulated seconds x 1 seed, with no cell cache;
* the six workloads of the end-to-end benchmark
  (``benchmarks/e2e/workloads.py``, imported, not edited), shortened;
* ``run_live_scenario`` on every scenario kind, then on ``link_loss`` at
  each ordering level;
* ``run_cluster_scenario`` with two broker processes (the parent process
  only: the spawned brokers are not traced);
* ``repro compare`` and ``repro sweep --csv``;
* every ``examples/*.py``.

A module's executable lines are those of its compiled code objects
(:func:`dis.findlinestarts`), so blank lines, comments and docstrings
never count. The report (default ``benchmarks/output/census.txt``) lists
reached and executable lines per module, the totals, and every ``src/``
function none of whose lines ran. A function listed there is reached by
tests alone (or by nothing): a candidate for deletion unless it is safety
code that only fires on a violation, or the benchmark calls it. The
report names the Python minor it was written with: line tables differ
between minors, and on that minor the suite checks that its executable
column is the tree's own (``tests/integration/test_scripts.py``).

The trace slows the run down by about an order of magnitude; the full
census takes several minutes. ``--quick`` runs one example driver only
(a smoke test of the counter itself).

Usage::

    PYTHONPATH=src python scripts/census.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import dis
import io
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]

#: Example scripts and the reduced-scale arguments each runs with.
EXAMPLES: Dict[str, Tuple[str, ...]] = {
    "embedded_api.py": (),
    "quickstart.py": ("--duration", "2", "--seed", "1"),
    "air_surveillance.py": ("--duration", "2", "--seed", "2"),
    "market_data_fanout.py": ("--duration", "2", "--seed", "3"),
    "failure_storm.py": ("--duration", "2", "--seed", "4"),
    "congestion_meltdown.py": ("--duration", "2"),
    "live_delivery_rate.py": ("--duration", "2", "--seed", "7", "--window", "1"),
}

#: Simulated seconds of each shortened benchmark workload: long enough for
#: one monitoring refresh (refresh_controlplane) and for loss, failover
#: and hold-back to happen (lossy_failover, total_order).
E2E_DURATIONS = {
    "dense_dataplane": 2.0,
    "refresh_controlplane": 12.0,
    "lossy_failover": 20.0,
    "total_order": 20.0,
    "congested_links": 2.0,
}
LIVE_RING_PUBLISHES = 40

#: A code object's identity across compilations: (file, name, first line).
Key = Tuple[str, str, int]


class LineCounter:
    """A :func:`sys.settrace` hook recording the lines run under ``src/repro``.

    A code object stops being traced once all of its lines have run, so
    hot loops cost a call event each rather than a line event per line.
    """

    def __init__(self, executable: Dict[CodeType, Set[int]]) -> None:
        #: The lines each code object ran, by :func:`_key`. A ``def`` line
        #: runs in the enclosing code, so it does not make the function
        #: reached.
        self.reached: Dict[Key, Set[int]] = defaultdict(set)
        self._pending = {_key(code): set(lines) for code, lines in executable.items()}
        #: id(code) -> (code, its (pending, reached) sets or None when it
        #: is not ours); the code object is kept so its id is never reused.
        self._seen: Dict[int, Tuple[CodeType, Optional[Tuple[Set[int], Set[int]]]]] = {}

    def _sets(self, code: CodeType) -> Optional[Tuple[Set[int], Set[int]]]:
        entry = self._seen.get(id(code))
        if entry is None or entry[0] is not code:
            key = _key(code)
            pending = self._pending.get(key)
            sets = None if pending is None else (pending, self.reached[key])
            entry = (code, sets)
            self._seen[id(code)] = entry
        return entry[1]

    def _local(self, pending: Set[int], reached: Set[int]) -> Callable[..., Any]:
        def local(frame: Any, event: str, _arg: Any) -> Any:
            if event == "line":
                line = frame.f_lineno
                reached.add(line)
                pending.discard(line)
                if not pending:
                    frame.f_trace_lines = False
            return local

        return local

    def on_call(self, frame: Any, event: str, _arg: Any) -> Any:
        code = frame.f_code
        sets = self._sets(code)
        if sets is None:
            return None
        pending, reached = sets
        reached.add(code.co_firstlineno)
        pending.discard(code.co_firstlineno)
        if not pending:
            return None
        return self._local(pending, reached)

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        threading.settrace(self.on_call)
        sys.settrace(self.on_call)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)  # type: ignore[arg-type]


def _key(code: CodeType) -> Key:
    return (str(Path(code.co_filename).resolve()), code.co_name, code.co_firstlineno)


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _lines(code: CodeType) -> Set[int]:
    return {line for _start, line in dis.findlinestarts(code) if line is not None}


def _qualname(code: CodeType) -> str:
    # ``co_qualname`` is new in Python 3.11.
    return getattr(code, "co_qualname", code.co_name)


def module_name(path: Path) -> str:
    """*path*'s name in the report: relative to ``src``, e.g. ``repro/cli.py``."""
    return path.relative_to(SRC.resolve()).as_posix()


def executable_lines(codes: List[CodeType]) -> Set[int]:
    """The executable lines of a module compiled to *codes*."""
    return set().union(*(_lines(code) for code in codes))


def python_minor() -> str:
    """The running interpreter's ``major.minor``: line tables differ
    between minors, so a census is only comparable on its own."""
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def compile_package() -> Dict[Path, List[CodeType]]:
    """Every code object of every module under ``src/repro``, by file."""
    modules: Dict[Path, List[CodeType]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        resolved = path.resolve()
        top = compile(path.read_text(), str(resolved), "exec")
        modules[resolved] = list(_code_objects(top))
    return modules


# ----------------------------------------------------------------------
# The production drivers
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _argv(argv: List[str]) -> Iterator[None]:
    saved = sys.argv
    sys.argv = argv
    try:
        yield
    finally:
        sys.argv = saved


def run_experiments() -> None:
    with tempfile.TemporaryDirectory() as out:
        script = ROOT / "scripts" / "run_experiments.py"
        argv = [str(script), "--duration", "2", "--repetitions", "1", "--no-cache",
                "--out", out]
        with _argv(argv):
            runpy.run_path(str(script), run_name="__main__")


def e2e_workloads() -> None:
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        if workload.substrate == "sim":
            config = dataclasses.replace(
                workload.config, duration=E2E_DURATIONS[workload.name]
            )
            workload = dataclasses.replace(workload, config=config)
        else:
            workload = dataclasses.replace(workload, publishes=LIVE_RING_PUBLISHES)
        rep = workload.rep(1)
        if rep.substrate == "live":
            workload.sim_delay_quantiles(rep)


def live_scenarios() -> None:
    from repro.live.runtime import run_live_scenario
    from repro.live.scenarios import SCENARIO_KINDS, make_scenario
    from repro.ordering.spec import LEVELS

    for kind in SCENARIO_KINDS:
        run_live_scenario(make_scenario(kind), seed=0)
    for level in LEVELS:
        scenario = dataclasses.replace(make_scenario("link_loss"), ordering=level)
        run_live_scenario(scenario, seed=0)


def cluster() -> None:
    from repro.live.cluster import run_cluster_scenario
    from repro.live.scenarios import make_scenario

    run_cluster_scenario(make_scenario("clean"), seed=0, processes=2)


def compare() -> None:
    from repro.cli import main

    main(["compare", "--duration", "2", "--perf"])


def sweep() -> None:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as out:
        main(["sweep", "pf", "--values", "0.02", "0.06", "--repetitions", "1",
              "--duration", "2", "--csv", str(Path(out) / "sweep.csv")])


def examples(names: Optional[List[str]] = None) -> None:
    for name in names or list(EXAMPLES):
        script = ROOT / "examples" / name
        with _argv([str(script), *EXAMPLES[name]]):
            runpy.run_path(str(script), run_name="__main__")


DRIVERS: Dict[str, Callable[[], None]] = {
    "run_experiments": run_experiments,
    "e2e_workloads": e2e_workloads,
    "live_scenarios": live_scenarios,
    "cluster": cluster,
    "compare": compare,
    "sweep": sweep,
    "examples": examples,
}


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def report(
    modules: Dict[Path, List[CodeType]], reached: Dict[Key, Set[int]], drivers: List[str]
) -> str:
    rows = []
    unreached: List[str] = []
    total_reached = total_lines = 0
    for path, codes in modules.items():
        name = module_name(path)
        lines = executable_lines(codes)
        hit = set().union(*(reached.get(_key(code), set()) for code in codes)) & lines
        rows.append((name, len(hit), len(lines)))
        total_reached += len(hit)
        total_lines += len(lines)
        # Outermost functions with no reached line; their nested code
        # objects (closures, comprehensions) are not listed again.
        skip: Set[CodeType] = set()
        for code in codes:
            if code in skip or code.co_name.startswith("<"):
                continue
            if not reached.get(_key(code)):
                unreached.append(f"{name}:{code.co_firstlineno} {_qualname(code)}")
                skip.update(_code_objects(code))
    out = [
        "# Line census of src/repro under the production drivers "
        "(scripts/census.py).",
        f"# drivers: {', '.join(drivers)}",
        f"# python: {python_minor()}",
        "",
        f"{'module':<40} {'reached':>8} {'lines':>6} {'share':>7}",
    ]
    for name, hit, lines in rows:
        share = hit / lines if lines else 1.0
        out.append(f"{name:<40} {hit:>8} {lines:>6} {share:>7.1%}")
    share = total_reached / total_lines if total_lines else 1.0
    out.append(f"{'TOTAL':<40} {total_reached:>8} {total_lines:>6} {share:>7.1%}")
    out.append("")
    out.append(f"# {len(unreached)} functions with no reached line")
    out.extend(unreached)
    return "\n".join(out) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="run one example driver only (a smoke test)"
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / "benchmarks" / "output" / "census.txt"
    )
    args = parser.parse_args()

    modules = compile_package()
    executable = {code: _lines(code) for codes in modules.values() for code in codes}
    counter = LineCounter(executable)
    if args.quick:
        plan: List[Tuple[str, Callable[[], None]]] = [
            ("examples/embedded_api.py", lambda: examples(["embedded_api.py"]))
        ]
    else:
        plan = list(DRIVERS.items())
    for name, driver in plan:
        start = time.perf_counter()
        # The drivers print their own reports and progress; the census
        # keeps them out of its output.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ), counter.active():
            driver()
        print(f"[census] {name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    text = report(modules, counter.reached, [name for name, _ in plan])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    total = next(line for line in text.splitlines() if line.startswith("TOTAL"))
    print(total)
    print(f"[census written to {args.out}]")


if __name__ == "__main__":
    main()
