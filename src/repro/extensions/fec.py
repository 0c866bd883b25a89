"""FEC baseline: path diversity with forward error correction.

The paper's related work cites Nguyen & Zakhor's PDF system [5] — packet-
level FEC over diverse paths — as the other classical way of buying
reliability with redundancy. It is the Multipath baseline with an (n, k)
erasure code, so this extension is a preset of
:class:`~repro.routing.multipath.MultipathStrategy`:

* each published message is expanded into ``n = k + r`` fragments
  (``k`` data + ``r`` parity — we simulate the combinatorics, not the
  Galois-field arithmetic: *any* ``k`` distinct fragments decode the
  message);
* the ``n`` fragments are source-routed over the ``n`` most link-disjoint
  of the shortest-delay paths (Multipath's path-diversity rule);
* the subscriber's broker runtime reassembles — delivery happens when the
  ``k``-th distinct fragment arrives;
* a fragment whose path fails is lost, and the message survives only while
  at least ``k`` fragment paths stay alive.

Per-subscriber traffic is ~``n/k`` of a tree's (for same-length paths),
tunable between Multipath's 2x (``k=1, r=1`` is Multipath itself) and
thinner redundancy like (3, 2).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import ProgressHook, SweepExecutor, SweepResult, sweep
from repro.routing.multipath import MultipathStrategy


class FecMultipathStrategy(MultipathStrategy):
    """(3, 2) erasure-coded delivery over diverse fixed paths."""

    name = "FEC"
    k = 2
    r = 1
    candidate_pool = 8


def fec_study(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    failure_probabilities: Sequence[float] = (0.0, 0.02, 0.06, 0.1),
    degree: int = 5,
    strategies: Sequence[str] = ("DCRD", "Multipath", "FEC", "D-Tree"),
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Redundancy trade-off sweep: FEC vs Multipath vs DCRD under failures."""
    configs = {
        pf: ExperimentConfig(
            topology_kind="regular",
            degree=degree,
            duration=duration,
            failure_probability=pf,
        )
        for pf in failure_probabilities
    }
    return sweep(
        "Extension: FEC redundancy",
        "failure probability",
        configs,
        seeds,
        strategies,
        progress,
        executor=executor,
    )
