"""Run summaries: the paper's three headline metrics plus diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

# ``np.quantile`` imports ``numpy.ma`` on its first call (through
# ``np.unique``); importing it here pays that once at import, not inside
# the first run's timed region.
import numpy.ma  # noqa: F401

from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated results of one simulation run.

    ``delivery_ratio``, ``qos_delivery_ratio`` and ``packets_per_subscriber``
    are the paper's §IV-C metrics; the rest support the delay CDF of
    Figure 7 and general diagnostics.
    """

    strategy: str
    messages_published: int
    expected_deliveries: int
    delivered: int
    on_time: int
    duplicates: int
    data_transmissions: int
    delivery_ratio: float
    qos_delivery_ratio: float
    packets_per_subscriber: float
    mean_delay: Optional[float]
    p95_delay: Optional[float]
    #: Size-weighted traffic per subscriber; differs from
    #: ``packets_per_subscriber`` only for FEC fragments (size 1/k).
    traffic_per_subscriber: float = 0.0
    late_normalized_delays: List[float] = field(default_factory=list)
    #: Performance instrumentation snapshot (control-plane solve time,
    #: tables reused vs re-solved, Jacobi rounds, event counts; see
    #: :mod:`repro.perf`). Wall-clock values are non-deterministic, so the
    #: field is excluded from equality and from :meth:`as_dict` — the
    #: reproducibility tests compare both.
    perf: Dict[str, float] = field(default_factory=dict, compare=False)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (reports, JSON dumps). Excludes :attr:`perf`."""
        return {
            "strategy": self.strategy,
            "messages_published": self.messages_published,
            "expected_deliveries": self.expected_deliveries,
            "delivered": self.delivered,
            "on_time": self.on_time,
            "duplicates": self.duplicates,
            "data_transmissions": self.data_transmissions,
            "delivery_ratio": self.delivery_ratio,
            "qos_delivery_ratio": self.qos_delivery_ratio,
            "packets_per_subscriber": self.packets_per_subscriber,
            "traffic_per_subscriber": self.traffic_per_subscriber,
            "mean_delay": self.mean_delay,
            "p95_delay": self.p95_delay,
        }


def summarize(
    collector: MetricsCollector,
    data_transmissions: int,
    strategy: str = "unknown",
    data_volume: Optional[float] = None,
    perf: Optional[Dict[str, float]] = None,
) -> MetricsSummary:
    """Reduce a collector plus the DATA-frame counters to a summary.

    ``data_volume`` defaults to the transmission count (frames of size 1).
    ``perf`` is an optional :meth:`repro.perf.PerfStats.snapshot` to carry
    along for diagnostics.
    """
    expected = collector.expected_deliveries
    delivered = collector.delivered_count()
    on_time = collector.on_time_count()
    delays = collector.delays()
    mean_delay = float(np.mean(delays)) if delays else None
    p95_delay = float(np.quantile(delays, 0.95)) if delays else None
    if data_volume is None:
        data_volume = float(data_transmissions)
    return MetricsSummary(
        strategy=strategy,
        messages_published=collector.messages_published,
        expected_deliveries=expected,
        delivered=delivered,
        on_time=on_time,
        duplicates=collector.duplicate_count(),
        data_transmissions=data_transmissions,
        delivery_ratio=delivered / expected if expected else 0.0,
        qos_delivery_ratio=on_time / expected if expected else 0.0,
        packets_per_subscriber=data_transmissions / expected if expected else 0.0,
        mean_delay=mean_delay,
        p95_delay=p95_delay,
        traffic_per_subscriber=data_volume / expected if expected else 0.0,
        late_normalized_delays=collector.late_normalized_delays(),
        perf=dict(perf) if perf else {},
    )


def mean_summaries(summaries: Sequence[MetricsSummary]) -> MetricsSummary:
    """Average several repetition summaries of the *same* strategy.

    Ratios are averaged with equal weight per repetition (the paper averages
    over 10 topologies); counters are summed; delay statistics are averaged
    over the repetitions that produced one.
    """
    if not summaries:
        raise ValueError("mean_summaries of empty sequence")
    strategies = {s.strategy for s in summaries}
    if len(strategies) != 1:
        raise ValueError(f"mixing strategies in one mean: {sorted(strategies)}")
    late: List[float] = []
    for summary in summaries:
        late.extend(summary.late_normalized_delays)
    merged_perf: Dict[str, float] = {}
    for summary in summaries:
        for name, value in summary.perf.items():
            merged_perf[name] = merged_perf.get(name, 0.0) + value
    mean_delays = [s.mean_delay for s in summaries if s.mean_delay is not None]
    p95_delays = [s.p95_delay for s in summaries if s.p95_delay is not None]
    return MetricsSummary(
        strategy=summaries[0].strategy,
        messages_published=sum(s.messages_published for s in summaries),
        expected_deliveries=sum(s.expected_deliveries for s in summaries),
        delivered=sum(s.delivered for s in summaries),
        on_time=sum(s.on_time for s in summaries),
        duplicates=sum(s.duplicates for s in summaries),
        data_transmissions=sum(s.data_transmissions for s in summaries),
        delivery_ratio=float(np.mean([s.delivery_ratio for s in summaries])),
        qos_delivery_ratio=float(np.mean([s.qos_delivery_ratio for s in summaries])),
        packets_per_subscriber=float(
            np.mean([s.packets_per_subscriber for s in summaries])
        ),
        mean_delay=float(np.mean(mean_delays)) if mean_delays else None,
        p95_delay=float(np.mean(p95_delays)) if p95_delays else None,
        traffic_per_subscriber=float(
            np.mean([s.traffic_per_subscriber for s in summaries])
        ),
        late_normalized_delays=late,
        perf=merged_perf,
    )
