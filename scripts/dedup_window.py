#!/usr/bin/env python3
"""Check that every broker's dedup window stays within its horizon's bound.

Builds a simulated workload of the end-to-end benchmark
(``benchmarks/e2e/workloads.py``) at a short duration, runs its timed
region with an observer that logs each broker's accepts, and compares
each broker's dedup window — the transfer ids it still remembers — with
what its horizon ``H`` allows (:func:`repro.stack.dedup_horizon`):

* with a horizon, the window may hold no more ids than the broker
  accepted in the ``2 H`` before its last accept (its accept rate times
  ``2 H``), and must hold every id it accepted in the last ``H``;
* with none (``H`` infinite), it must hold the last ``DEDUP_CAPACITY``
  ids accepted, and an older generation only once it was full.

Counts, not bytes: the result is deterministic for a workload, seed and
duration. Prints one line per world and exits 1 if any broker breaks
its bound.

Usage::

    PYTHONPATH=src python scripts/dedup_window.py lossy_failover [--duration 120] [--seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro import probes  # noqa: E402
from repro.pubsub import broker as broker_module  # noqa: E402
from workloads import BY_NAME  # noqa: E402

SIM_WORKLOADS = sorted(
    name for name, workload in BY_NAME.items() if workload.substrate == "sim"
)


class AcceptLog(probes.ProbeObserver):
    """``(time, transfer id)`` of every accept, per broker, in order."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.by_node: Dict[int, List[Tuple[float, int]]] = defaultdict(list)

    def on_broker_accept(self, node: int, sender: int, frame: Any) -> None:
        self.by_node[node].append((self.clock.now, frame.transfer_id))


def broken_bound(broker: Any, accepts: List[Tuple[float, int]]) -> str:
    """Why *broker*'s window breaks its bound, or ``""``."""
    window = broker._seen | broker._older
    horizon = broker._horizon
    if horizon == math.inf:
        capacity = broker_module.DEDUP_CAPACITY
        if not {tid for _t, tid in accepts[-capacity:]} <= window:
            return "forgot one of the last DEDUP_CAPACITY ids"
        if broker._older and len(broker._older) < capacity:
            return "retired a generation short of DEDUP_CAPACITY"
        return ""
    if not accepts:
        return "holds ids it never accepted" if window else ""
    last = accepts[-1][0]
    bound = sum(1 for t, _tid in accepts if last - t < 2 * horizon)
    if len(window) > bound:
        return f"holds {len(window)} ids, its rate x 2H allows {bound}"
    if any(tid not in window for t, tid in accepts if last - t < horizon):
        return "forgot an id younger than one horizon"
    return ""


def check(name: str, duration: float, seed: int) -> bool:
    workload = BY_NAME[name]
    workload = dataclasses.replace(
        workload, config=dataclasses.replace(workload.config, duration=duration)
    )
    env = workload.build(seed)
    log = AcceptLog(env.ctx.sim)
    probes.attach(log)
    try:
        env.execute()
    finally:
        probes.detach(log)
    ok = True
    for broker in env.brokers:
        why = broken_bound(broker, log.by_node[broker.node])
        if why:
            ok = False
            print(f"broker {broker.node}: {why}")
    accepted = sum(len(accepts) for accepts in log.by_node.values())
    sizes = [len(broker._seen) + len(broker._older) for broker in env.brokers]
    # What a FIFO window of DEDUP_CAPACITY ids per broker would hold.
    fifo = sum(
        min(len(log.by_node[broker.node]), broker_module.DEDUP_CAPACITY)
        for broker in env.brokers
    )
    print(
        f"{name} seed={seed} duration={duration} s horizon={env.brokers[0]._horizon:.3f} s "
        f"brokers={len(env.brokers)} accepted={accepted} "
        f"discarded={sum(b.duplicates_suppressed for b in env.brokers)} "
        f"window={sum(sizes)} (largest {max(sizes)}; "
        f"a {broker_module.DEDUP_CAPACITY}-id FIFO: {fifo}) "
        f"{'ok' if ok else 'BOUND BROKEN'}"
    )
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=SIM_WORKLOADS)
    parser.add_argument("--duration", type=float, default=120.0, help="simulated seconds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not check(args.workload, args.duration, args.seed):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
