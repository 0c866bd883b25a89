#!/usr/bin/env python3
"""A custom probe-bus observer: per-broker live delivery-rate counter.

The :mod:`repro.probes` bus is the extension seam for new observability:
any object with ``on_<family>`` methods (or a ``probe_handlers()``
mapping) can watch the data plane without touching ``src/repro`` — the
same hook sites that feed the run record (:mod:`repro.record`) feed
it, and with no observer attached every site is a literal no-op.

This example attaches a ~50-line observer that tallies, per broker, how
many DATA frames arrived versus how many turned into first deliveries,
prints a live delivery-rate line every simulated ``--window`` seconds,
and surfaces its totals as ``live.*`` perf counters (the runner merges
``perf_counters()`` from every attached observer into the summary).

Run:
    python examples/live_delivery_rate.py [--duration 30] [--seed 7]
"""

from __future__ import annotations

import argparse

from repro import ExperimentConfig, probes
from repro.experiments.runner import run_single


class LiveDeliveryRate(probes.ProbeObserver):
    """Counts per-broker arrivals/deliveries; reports once per window."""

    def __init__(self, window: float = 5.0) -> None:
        self.window = window
        self.arrivals = {}  # broker -> DATA frames that reached it
        self.deliveries = {}  # broker -> first local deliveries
        self._next_report = window

    def on_arrive(self, t, src, dst, frame) -> None:
        self.arrivals[dst] = self.arrivals.get(dst, 0) + 1
        self._maybe_report(t)

    def on_deliver(self, t, node, frame) -> None:
        self.deliveries[node] = self.deliveries.get(node, 0) + 1
        self._maybe_report(t)

    def _maybe_report(self, t: float) -> None:
        if t < self._next_report:
            return
        self._next_report += self.window
        arrived = sum(self.arrivals.values())
        delivered = sum(self.deliveries.values())
        busiest = max(self.deliveries, key=self.deliveries.get, default=None)
        line = f"[t={t:7.2f}s] arrivals={arrived:6d} deliveries={delivered:5d}"
        if busiest is not None:
            line += (
                f"  busiest broker={busiest}"
                f" ({self.deliveries[busiest]} delivered)"
            )
        print(line)

    def perf_counters(self):
        return {
            "live.arrivals": float(sum(self.arrivals.values())),
            "live.deliveries": float(sum(self.deliveries.values())),
            "live.brokers_delivering": float(len(self.deliveries)),
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=30.0, help="publish window (seconds)")
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument("--window", type=float, default=5.0, help="report interval (simulated seconds)")
    args = parser.parse_args()

    config = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        num_nodes=20,
        failure_probability=0.05,
        duration=args.duration,
    )
    observer = LiveDeliveryRate(window=args.window)
    probes.attach(observer)
    try:
        print(f"Running DCRD: {config.describe()}  (seed={args.seed})\n")
        summary = run_single(config, "DCRD", seed=args.seed)
    finally:
        probes.detach(observer)

    delivered = sum(observer.deliveries.values())
    print(
        f"\nObserver saw {sum(observer.arrivals.values())} frame arrivals and "
        f"{delivered} deliveries across {len(observer.deliveries)} brokers."
    )
    print(
        f"Summary agrees: delivery ratio {summary.delivery_ratio:.1%}, "
        f"live.deliveries={summary.perf['live.deliveries']:.0f} "
        f"(merged from the observer's perf_counters())."
    )


if __name__ == "__main__":
    main()
