#!/usr/bin/env python3
"""Air-surveillance scenario: the workload that motivates the paper.

The paper's publish rate (1 packet/s per publisher) is taken from ADS-B,
where each aircraft broadcasts its position roughly once per second and
ground stations distribute the track to consumers — control centres,
displays, archival — with hard latency requirements.

This example models a small surveillance backbone explicitly instead of
using the random workload generator:

* 24 ground-station brokers on a degree-6 overlay (WAN links, 10–50 ms);
* 12 "radar feed" topics, one per coverage sector, published from the
  sector's ingest broker;
* each feed subscribed by 3 regional control centres plus a national one,
  every subscription carrying a 2.5x-shortest-path latency requirement;
* a weather front that doubles the transient link-failure probability
  halfway through the run.

It then reports, per phase, how DCRD and the shortest-delay tree cope.
"""

from __future__ import annotations

import argparse

from repro import ExperimentConfig, Subscription, TopicSpec, Workload
from repro.experiments.runner import build_environment, build_topology
from repro.sim.random import RandomStreams


def build_surveillance_workload(topology, rng) -> Workload:
    """12 sector feeds, each feeding 3 regional centres + 1 national centre."""
    national_centre = 0
    topics = []
    for sector in range(12):
        ingest = 1 + (sector * 2) % (topology.num_nodes - 1)
        centres = set()
        while len(centres) < 3:
            candidate = int(rng.integers(1, topology.num_nodes))
            if candidate != ingest:
                centres.add(candidate)
        centres.add(national_centre)
        subscriptions = tuple(
            Subscription(
                node=centre,
                deadline=2.5 * topology.shortest_delay(ingest, centre),
            )
            for centre in sorted(centres)
            if centre != ingest
        )
        topics.append(
            TopicSpec(
                topic=sector,
                publisher=ingest,
                subscriptions=subscriptions,
                publish_interval=1.0,  # the ADS-B broadcast rate
                phase=float(rng.uniform(0.0, 1.0)),
            )
        )
    return Workload(topics=topics)


def run_phase(label, pf, duration, seed, strategy):
    config = ExperimentConfig(
        topology_kind="regular",
        degree=6,
        num_nodes=24,
        num_topics=12,
        failure_probability=pf,
        duration=duration,
    )
    streams = RandomStreams(seed)
    topology = build_topology(config, streams)
    workload = build_surveillance_workload(topology, streams.get("workload"))
    env = build_environment(config, strategy, seed, topology=topology, workload=workload)
    summary = env.execute()
    print(
        f"  {label:<18} {strategy:<8} delivery={summary.delivery_ratio:6.1%} "
        f"on-time={summary.qos_delivery_ratio:6.1%} "
        f"traffic={summary.packets_per_subscriber:5.2f} pkts/track-update"
    )
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print("Phase 1: clear weather (Pf = 0.02)")
    for strategy in ("DCRD", "D-Tree"):
        run_phase("clear weather", 0.02, args.duration, args.seed, strategy)

    print("\nPhase 2: weather front (Pf = 0.08)")
    results = {}
    for strategy in ("DCRD", "D-Tree"):
        results[strategy] = run_phase(
            "weather front", 0.08, args.duration, args.seed, strategy
        )

    dcrd, dtree = results["DCRD"], results["D-Tree"]
    saved = dcrd.on_time - dtree.on_time
    print(
        f"\nDuring the front, DCRD delivered {saved} more track updates on time "
        f"than the fixed shortest-delay tree "
        f"({dcrd.qos_delivery_ratio - dtree.qos_delivery_ratio:+.1%})."
    )


if __name__ == "__main__":
    main()
