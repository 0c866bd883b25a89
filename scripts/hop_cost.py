#!/usr/bin/env python3
"""Count what one delivered pair costs the interpreter, function by function.

Builds a simulated workload of the end-to-end benchmark
(``benchmarks/e2e/workloads.py``) at a short duration, runs its timed
region (``SimulationEnvironment.execute``) under :func:`sys.settrace` with
opcode events on, and prints the bytecodes executed and the Python calls
made per delivered (message, subscriber) pair: in total, then per
function. The counts are deterministic for a fixed workload, seed and
duration — unlike a timed A/B they do not move with the host's load — so
they show exactly which frames a data-plane change removed or added.
C-level calls (numpy, builtins, ``dict`` methods) execute no bytecode and
open no Python frame, so they are not counted; their cost is charged to
nothing here and only shows in a timed run.

The trace slows the run by two orders of magnitude: 6 simulated seconds
of ``dense_dataplane`` take about a minute.

Usage::

    PYTHONPATH=src python scripts/hop_cost.py dense_dataplane [--duration 6] [--seed 1] [--top 25]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from workloads import BY_NAME  # noqa: E402

SIM_WORKLOADS = sorted(
    name for name, workload in BY_NAME.items() if workload.substrate == "sim"
)


def _label(code: Any) -> str:
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT / "src")
    except ValueError:
        pass
    return f"{getattr(code, 'co_qualname', code.co_name)} ({path}:{code.co_firstlineno})"


def measure(name: str, duration: float, seed: int) -> Tuple[int, Counter, Counter]:
    """``(delivered pairs, bytecodes per code object, calls per code object)``."""
    workload = BY_NAME[name]
    workload = dataclasses.replace(
        workload, config=dataclasses.replace(workload.config, duration=duration)
    )
    env = workload.build(seed)
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def local(frame: Any, event: str, _arg: Any) -> Any:
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame: Any, event: str, _arg: Any) -> Any:
        # Generator resumptions raise "call" too; each is a frame entry.
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        summary = env.execute()
    finally:
        sys.settrace(None)
    return summary.delivered, opcodes, calls


def report(name: str, duration: float, seed: int, top: int) -> Dict[str, float]:
    delivered, opcodes, calls = measure(name, duration, seed)
    if delivered < 1:
        raise SystemExit(f"{name}: nothing was delivered in {duration} s")
    total_ops = sum(opcodes.values())
    total_calls = sum(calls.values())
    print(f"# workload={name} seed={seed} duration={duration} s delivered_pairs={delivered}")
    print(f"bytecodes_per_pair {total_ops / delivered:10.1f}")
    print(f"calls_per_pair     {total_calls / delivered:10.2f}")
    print()
    print(f"{'bytecodes/pair':>14} {'calls/pair':>10} {'bytecodes/call':>14}  function")
    for code, count in opcodes.most_common(top):
        n = calls[code]
        print(
            f"{count / delivered:14.1f} {n / delivered:10.3f} "
            f"{count / n if n else 0.0:14.1f}  {_label(code)}"
        )
    return {
        "bytecodes_per_pair": total_ops / delivered,
        "calls_per_pair": total_calls / delivered,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=SIM_WORKLOADS)
    parser.add_argument("--duration", type=float, default=6.0, help="simulated seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    args = parser.parse_args()
    report(args.workload, args.duration, args.seed, args.top)


if __name__ == "__main__":
    main()
