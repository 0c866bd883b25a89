"""Control-plane convergence study.

The ``<d, r>`` recursion (§III-B) is solved by repeated local updates; the
paper never reports how fast it settles. This module measures it: sweeps to
convergence of the ``<d, r>`` table of every (topic, subscriber) pair of a
workload, solved through one
:class:`repro.core.computation.ControlPlaneSolver` (every table is
independent of its batch mates), which bounds the time the distributed
protocol needs after a subscription or a monitoring refresh.
Every solve converges or raises, so there is no unconverged share to
report.

``rounds`` counts block Gauss-Seidel sweeps
(:func:`repro.core.computation.sweep_blocks`). Below 32 nodes a graph is
one block, and a sweep is one lock-step round: every broker updates from
its neighbours' values at the sweep's start, so rounds are propagation
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.computation import ControlPlaneSolver
from repro.overlay.monitor import LinkMonitor
from repro.overlay.topology import Topology
from repro.pubsub.topics import Workload


@dataclass(frozen=True)
class ConvergenceReport:
    """Rounds-to-convergence statistics over all workload pairs.

    A round is one block Gauss-Seidel sweep; below 32 nodes (one block) it
    is one lock-step round.
    """

    pairs: int
    mean_rounds: float
    max_rounds: int
    reachable_fraction: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports and JSON dumps."""
        return {
            "pairs": self.pairs,
            "mean_rounds": self.mean_rounds,
            "max_rounds": self.max_rounds,
            "reachable_fraction": self.reachable_fraction,
        }


def convergence_report(
    topology: Topology,
    monitor: LinkMonitor,
    workload: Workload,
    m: int = 1,
) -> ConvergenceReport:
    """Solve every pair's recursion and summarise convergence behaviour."""
    solver = ControlPlaneSolver(topology, monitor.estimates(), m=m)
    tables = solver.solve(
        [
            (spec.publisher, sub.node, sub.deadline)
            for spec in workload.topics
            for sub in spec.subscriptions
        ]
    )
    rounds = [table.rounds for table in tables]
    reachable = [table.reachable(table.publisher) for table in tables]
    if not rounds:
        return ConvergenceReport(
            pairs=0,
            mean_rounds=0.0,
            max_rounds=0,
            reachable_fraction=1.0,
        )
    return ConvergenceReport(
        pairs=len(rounds),
        mean_rounds=float(np.mean(rounds)),
        max_rounds=int(max(rounds)),
        reachable_fraction=float(np.mean(reachable)),
    )
