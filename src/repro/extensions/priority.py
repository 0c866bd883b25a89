"""Priority-based queueing: the intro's other timely-delivery standard.

The paper's introduction contrasts DCRD with "standard approaches to
timely delivery of messages, such as priority-based queuing and shortest
path tree", which "do not simultaneously consider reliable delivery". With
the finite-capacity substrate, that approach is implementable and
measurable: ``P-DTree`` is the shortest-delay tree whose frames carry
their earliest destination deadline, served earliest-deadline-first at
every busy link.

The study's findings (recorded in EXPERIMENTS.md) are the textbook ones:

* **at moderate load EDF reordering alone helps**: urgent frames overtake
  transient queues and the QoS ratio recovers toward 100% while FIFO
  already leaks;
* **under sustained overload plain EDF ≈ FIFO** — a saturated queue
  drains at a fixed rate no matter the order, and EDF's preference for
  the earliest deadlines spends capacity on frames that are often
  *already doomed* (the EDF domino effect);
* **EDF + drop-expired** is the real priority-queueing system: discarding
  frames that can no longer meet their deadline frees capacity, raising
  the QoS ratio at the direct cost of delivery ratio — timeliness traded
  against reliability, which is precisely the trade-off the paper says
  this approach cannot escape (and which DCRD's rerouting does not face:
  its losses come only from genuine partitions).

:func:`priority_queueing_study` sweeps offered load with mixed urgency
classes under the three queue disciplines (fifo / edf / edf+drop), one
:class:`~repro.experiments.sweeps.SweepResult` per mode.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import ProgressHook, SweepExecutor, SweepResult, sweep
from repro.overlay.links import QUEUE_DISCIPLINES

#: Load axis: seconds between packets per topic (last point is overload).
DEFAULT_INTERVALS = (0.5, 0.125, 0.0625)


def priority_queueing_study(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    publish_intervals: Sequence[float] = DEFAULT_INTERVALS,
    service_time: float = 0.02,
    degree: int = 5,
    deadline_factor_choices: Sequence[float] = (4.0, 16.0),
    strategies: Sequence[str] = ("P-DTree",),
    modes: Sequence[str] = QUEUE_DISCIPLINES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> Mapping[str, SweepResult]:
    """Sweep offered load per queueing mode with mixed urgency classes.

    Deadline classes are chosen so that the urgent class (4x) is feasible
    on idle links (propagation + per-hop service) but dies in queues,
    while the bulk class (16x) has genuine slack — the regime where EDF's
    reordering can matter at all.
    """
    results: Dict[str, SweepResult] = {}
    for mode in modes:
        configs = {
            interval: ExperimentConfig(
                topology_kind="regular",
                degree=degree,
                duration=duration,
                failure_probability=0.0,
                publish_interval=interval,
                link_service_time=service_time,
                deadline_factor_choices=tuple(deadline_factor_choices),
                queue_discipline=mode,
            )
            for interval in publish_intervals
        }
        results[mode] = sweep(
            f"Extension: priority queueing ({mode})",
            "publish interval (s)",
            configs,
            seeds,
            strategies,
            progress,
            executor=executor,
        )
    return results
