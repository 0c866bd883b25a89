"""Extensions beyond the paper's core evaluation.

* :mod:`repro.extensions.persistence` — the persistency mode sketched in
  §III ("to provide the delivery guarantee even in case of persistent
  failures, we need to persist all packets, and then send them when the
  failures are recovered");
* :mod:`repro.extensions.node_failures` — the node-failure evaluation the
  paper lists as work underway in §V;
* :mod:`repro.extensions.ablations` — design-choice ablations: monitoring
  mode (analytic vs sampled) and the ACK-timeout factor.
"""

from repro.extensions.ablations import (
    ack_timeout_ablation,
    monitoring_mode_ablation,
)
from repro.extensions.churn import ChurnProcess, churn_study, run_with_churn
from repro.extensions.congestion import congestion_study
from repro.extensions.fec import FecMultipathStrategy, fec_study
from repro.extensions.heterogeneous import (
    NaiveOrderDcrdStrategy,
    heterogeneity_study,
    reorder_table_by_delay,
)
from repro.extensions.node_failures import node_failure_study
from repro.extensions.persistence import PersistentDcrdStrategy
from repro.extensions.priority import priority_queueing_study

# Register the extension strategies with the experiment runner so configs
# can request them by name like any paper baseline.
from repro.experiments.runner import STRATEGIES as _STRATEGIES

_STRATEGIES.setdefault("DCRD+persist", PersistentDcrdStrategy)
_STRATEGIES.setdefault("FEC", FecMultipathStrategy)
_STRATEGIES.setdefault("DCRD-naive-order", NaiveOrderDcrdStrategy)

__all__ = [
    "ChurnProcess",
    "FecMultipathStrategy",
    "NaiveOrderDcrdStrategy",
    "PersistentDcrdStrategy",
    "ack_timeout_ablation",
    "churn_study",
    "congestion_study",
    "fec_study",
    "heterogeneity_study",
    "monitoring_mode_ablation",
    "node_failure_study",
    "priority_queueing_study",
    "reorder_table_by_delay",
    "run_with_churn",
]
