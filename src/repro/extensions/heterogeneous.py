"""Heterogeneous link quality: where Theorem 1 earns its keep.

In the paper's evaluation every link shares one loss rate, so
``r_X^i = gamma * r_i`` scales every candidate identically and Theorem 1's
``d/r`` sort collapses (almost) to a plain delay sort. Real overlays are
not like that: loss is wildly uneven across paths. This extension draws
each link's loss rate independently (``loss_rate_range``), which makes the
ordering decision genuinely two-dimensional — a slightly slower but much
cleaner neighbour should be tried first.

To isolate the theorem's contribution, :class:`NaiveOrderDcrdStrategy`
is DCRD with exactly one change: sending lists are sorted by expected
delay ``d_via`` alone (what a "shortest expected delay first" heuristic
would do) instead of ``d_via / r_via``. Everything else — Eq. 1/2/3, ACKs,
bouncing — is identical, so any performance gap is the ordering rule.

:func:`heterogeneity_study` sweeps the loss-rate spread at zero transient
failures (so loss is the only hazard) and compares DCRD, the naive-order
variant, and D-Tree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.computation import (
    DrTable,
    NodeState,
    ViaNeighbor,
    aggregate_dr,
    compute_dr_table,
)
from repro.core.forwarding import DcrdStrategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import ProgressHook, SweepExecutor, SweepResult, sweep


def reorder_table_by_delay(table: DrTable) -> DrTable:
    """A copy of *table* whose sending lists are sorted by ``d_via`` only.

    ``<d, r>`` values are re-aggregated under the new order so the
    advertised expectations stay internally consistent (the delivery
    ratio ``r`` is order-invariant; the expected delay ``d`` is not).
    """
    states: Dict[int, NodeState] = {}
    for node, state in table.states.items():
        if not state.sending_list:
            states[node] = state
            continue
        reordered: Tuple[ViaNeighbor, ...] = tuple(
            sorted(state.sending_list, key=lambda via: (via.d_via, via.neighbor))
        )
        d, r = aggregate_dr(reordered)
        states[node] = NodeState(d=d, r=r, sending_list=reordered)
    return DrTable(
        publisher=table.publisher,
        subscriber=table.subscriber,
        deadline=table.deadline,
        states=states,
        budgets=dict(table.budgets),
        rounds=table.rounds,
    )


class NaiveOrderDcrdStrategy(DcrdStrategy):
    """DCRD with delay-only sending-list order (Theorem 1 ablation)."""

    name = "DCRD-naive-order"

    def _publish_table(self, key: int, table: DrTable) -> None:
        """Publish the delay-ordered copy of each table the solver solved.

        Every solved table passes here once (setup, a rebuild's re-solved
        tables, a join); reused tables keep the copy published before. The
        ``table_solved`` probe still sees the solver's Theorem-1 order.
        """
        super()._publish_table(key, table)
        self._tables[key] = reorder_table_by_delay(table)


#: Loss-spread axis: (low, high) per-link loss ranges with equal means.
DEFAULT_SPREADS: Tuple[Tuple[float, float], ...] = (
    (0.10, 0.10),
    (0.05, 0.15),
    (0.00, 0.20),
    (0.00, 0.30),
)


def heterogeneity_study(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    spreads: Sequence[Tuple[float, float]] = DEFAULT_SPREADS,
    degree: int = 5,
    m: int = 1,
    strategies: Sequence[str] = ("DCRD", "DCRD-naive-order", "D-Tree"),
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Sweep per-link loss heterogeneity at zero transient failures."""
    configs = {}
    for low, high in spreads:
        label = f"U[{low:.2f},{high:.2f}]"
        configs[label] = ExperimentConfig(
            topology_kind="regular",
            degree=degree,
            duration=duration,
            failure_probability=0.0,
            loss_rate_range=(low, high),
            m=m,
        )
    return sweep(
        "Extension: loss heterogeneity",
        "per-link loss range",
        configs,
        seeds,
        strategies,
        progress,
        executor=executor,
    )
