#!/usr/bin/env python3
"""Congested links — the meltdown that was a clock started too early.

The paper motivates DCRD with "link failures and congestions unpredictably
occurring at overlay links", but evaluates only failures. This example
gives links finite capacity (a serialisation delay per DATA frame) and
ramps the publish rate through saturation, first on loss-free links and
then with link failures on top.

This file used to show a meltdown: DCRD at 2 % on-time delivery and
hundreds of packets per subscriber at 1 msg/s, because the hop-by-hop ACK
clock started when a copy was handed to its link and ran out while the
copy still sat in its sender's own output queue. The clock now starts when
the copy's last bit leaves the sender, and what the table shows instead:

1. **loss-free links** — silence means loss again, so DCRD never leaves
   its first-choice hops: it matches the fixed tree at every load, sends
   the tree's packets, and past saturation both lose on-time deliveries to
   queueing delay alone; the paper's static ACK timer needs no help.
   Multipath, which doubles its own load, congests first;
2. **failing links** — DCRD's failover works under load as it does on
   idle links: it delivers what the tree drops, for half a packet more per
   subscriber at every load. Past saturation that half packet is queueing
   delay too, and DCRD's *on-time* share drops below the tree's: next hops
   are still chosen by delay and reliability, not by backlog.

Run:
    python examples/congestion_meltdown.py [--service-time 0.02]
"""

from __future__ import annotations

import argparse

from repro import ExperimentConfig, run_comparison

STRATEGIES = ("DCRD", "D-Tree", "Multipath")
#: Seconds between packets per topic: 1, 4, 8, 16 and 25 msg/s.
INTERVALS = (1.0, 0.25, 0.125, 0.0625, 0.04)
FAILURE_PROBABILITY = 0.06


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument(
        "--service-time",
        type=float,
        default=0.02,
        help="seconds a DATA frame occupies a link direction (capacity = 1/x)",
    )
    args = parser.parse_args()

    capacity = 1.0 / args.service_time
    print(
        f"Link capacity: {capacity:.0f} frames/s per direction "
        f"(service time {args.service_time * 1000:.0f} ms)"
    )
    results = {}
    for pf in (0.0, FAILURE_PROBABILITY):
        print(f"\n--- link failure probability Pf = {pf} ---")
        print(f"{'load':>12} {'strategy':<15} {'on-time':>8} {'delivered':>10} {'pkts/sub':>9}")
        for interval in INTERVALS:
            config = ExperimentConfig(
                topology_kind="regular",
                degree=5,
                num_nodes=20,
                num_topics=8,
                publish_interval=interval,
                failure_probability=pf,
                link_service_time=args.service_time,
                duration=args.duration,
            )
            results[pf, interval] = run_comparison(
                config, seed=args.seed, strategies=STRATEGIES
            )
            for name in STRATEGIES:
                summary = results[pf, interval][name]
                print(
                    f"{1.0 / interval:>8.0f} p/s {name:<15} "
                    f"{summary.qos_delivery_ratio:>8.1%} "
                    f"{summary.delivery_ratio:>10.1%} "
                    f"{summary.packets_per_subscriber:>9.2f}"
                )
            print()

    # The takeaway is computed from the table above, not asserted about it.
    loss_free = [results[0.0, interval] for interval in INTERVALS]
    failing = [results[FAILURE_PROBABILITY, interval] for interval in INTERVALS]
    gap = max(
        abs(r["DCRD"].qos_delivery_ratio - r["D-Tree"].qos_delivery_ratio)
        for r in loss_free
    )
    packets = max(r["DCRD"].packets_per_subscriber for r in loss_free + failing)
    light, heavy = loss_free[0]["D-Tree"], loss_free[-1]["D-Tree"]
    gains = [r["DCRD"].delivery_ratio - r["D-Tree"].delivery_ratio for r in failing]
    print(
        "Takeaway: with the ACK clock started at the wire, a loaded link is not\n"
        f"a dead one. Loss-free, DCRD stays within {gap:.1%} of the fixed tree's\n"
        "on-time delivery at every load,\n"
        f"and the tree's own on-time delivery goes {light.qos_delivery_ratio:.0%} -> "
        f"{heavy.qos_delivery_ratio:.0%} from "
        f"{1.0 / INTERVALS[0]:.0f} to {1.0 / INTERVALS[-1]:.0f} msg/s:\n"
        "that loss is queueing delay, which no routing removes. With Pf = "
        f"{FAILURE_PROBABILITY},\n"
        f"DCRD delivers {min(gains):+.1%} to {max(gains):+.1%} more of the pairs than the tree,\n"
        f"at no more than {packets:.2f} packets per subscriber anywhere in the table.\n"
        "Those extra copies are extra load, though: at "
        f"{1.0 / INTERVALS[-1]:.0f} msg/s with failures DCRD is on time\n"
        f"for {failing[-1]['DCRD'].qos_delivery_ratio:.0%} of the pairs, the tree for "
        f"{failing[-1]['D-Tree'].qos_delivery_ratio:.0%} - choosing next hops by\n"
        "backlog is the step this protocol does not take yet."
    )


if __name__ == "__main__":
    main()
