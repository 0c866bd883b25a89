"""DCRD core: the paper's primary contribution.

* :mod:`repro.core.linkmath` — Eq. 1, the m-transmission link model;
* :mod:`repro.core.computation` — Eq. 2/3, the distributed ``<d, r>``
  recursion and its synchronous fixed-point solver;
* :mod:`repro.core.sending_list` — Theorem 1 ordering and eligibility;
* :mod:`repro.core.forwarding` — Algorithm 1 + Algorithm 2 as an
  event-driven strategy (:class:`DcrdStrategy`).
"""

from repro.core.computation import (
    ControlPlaneSolver,
    DrTable,
    NodeState,
    ViaNeighbor,
    compute_dr_table,
)
from repro.core.forwarding import DcrdStrategy
from repro.core.linkmath import expected_delay_m, expected_delivery_ratio_m, link_params_m
from repro.core.sending_list import eligible_neighbors, order_sending_list

__all__ = [
    "ControlPlaneSolver",
    "DcrdStrategy",
    "DrTable",
    "NodeState",
    "ViaNeighbor",
    "compute_dr_table",
    "eligible_neighbors",
    "expected_delay_m",
    "expected_delivery_ratio_m",
    "link_params_m",
    "order_sending_list",
]
