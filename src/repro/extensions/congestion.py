"""Congestion study: DCRD on finite-capacity links.

The paper motivates DCRD with "link failures *and congestions*
unpredictably occurring at overlay links" (§III) but its evaluation models
only failures. This extension closes the gap using the substrate's
finite-capacity link mode (``link_service_time``): each link direction
serialises one DATA frame per service time, so offered load above capacity
builds queues and queueing delay.

The result (measured: degree 5, 20 ms service time, 10–50 ms propagation,
10 topics, no link failures; ``benchmarks/output/ext_congestion.txt``):

* **The ACK clock must start at the wire.** A hop-by-hop timer armed when
  a copy is *handed to* its link runs while the copy still sits in its
  sender's own output queue — with a 20 ms service time the paper's
  ``factor * alpha`` timer then undercuts even the *unloaded* round trip
  (a 10 ms link: 21 ms against 20 + 10 + 10), every copy is declared
  lost, the sender walks its whole sending list per hop, and the overlay
  melts at 1 msg/s (this study used to measure 2–3 % QoS at 74–537
  packets per subscriber). :class:`~repro.routing.arq.ArqSender` starts
  the clock when the link reports the copy's last bit has left the
  sender, which the sender knows exactly: it is its own queue.
* **Done so, DCRD is the tree on loss-free congested links.** Silence on a
  link means loss again, so DCRD never leaves its first-choice hops: QoS
  1.000 / 0.999 / 0.983 / 0.747 / 0.575 / 0.258 at 1 / 4 / 8 / 16 / 25 /
  33 msg/s per topic against D-Tree's 1.000 / 0.999 / 0.985 / 0.747 /
  0.581 / 0.258, at 1.35–1.40 packets per subscriber throughout (the
  tree's figure plus the odd failover on a randomly lost frame). It
  degrades only by the queueing delay the tree pays too — no
  amplification, no knob, no estimator: the paper's static timer is the
  only ACK timeout there is.

Multipath, whose duplication doubles its own offered load, congests itself
well before the single-copy schemes at every level.

:func:`congestion_study` sweeps the publish rate (load) at a fixed service
time, through saturation, and reports QoS delivery per strategy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import ProgressHook, SweepExecutor, SweepResult, sweep

#: Publish intervals swept (seconds between packets per topic); smaller is
#: more load.
DEFAULT_PUBLISH_INTERVALS = (1.0, 0.25, 0.125, 0.0625, 0.04, 0.03)


def congestion_study(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    publish_intervals: Sequence[float] = DEFAULT_PUBLISH_INTERVALS,
    service_time: float = 0.02,
    degree: int = 5,
    strategies: Sequence[str] = ("DCRD", "D-Tree", "Multipath"),
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Sweep offered load on finite-capacity links.

    With ``service_time = 0.02`` a link direction carries at most 50
    DATA frames/s; ten topics at 8 pkt/s with multi-subscriber fan-out
    push shared tree links well past that.

    ORACLE is deliberately absent: its clairvoyance covers failures, not
    queues, and its loss-immunity makes congested comparisons misleading.
    """
    configs = {
        interval: ExperimentConfig(
            topology_kind="regular",
            degree=degree,
            duration=duration,
            failure_probability=0.0,
            publish_interval=interval,
            link_service_time=service_time,
        )
        for interval in publish_intervals
    }
    return sweep(
        "Extension: congestion",
        "publish interval (s)",
        configs,
        seeds,
        strategies,
        progress,
        executor=executor,
    )
