"""Ablation bench: DCRD on finite-capacity links, through saturation.

Not a paper figure — the paper motivates DCRD with congestion but models
only failures. This bench quantifies what the hop-by-hop ACK clock's
start instant decides on links that serialise frames: started at the wire
(see :mod:`repro.routing.arq`), the paper's static timer makes DCRD behave
exactly like the fixed tree on loss-free congested links — it degrades by
queueing delay only, never by amplification.
"""

from repro.extensions.congestion import congestion_study
from repro.experiments.report import render_panels

from _common import bench_duration, bench_seeds, save_report


def run():
    return congestion_study(duration=bench_duration(10.0), seeds=bench_seeds(1))


def test_congestion_ablation(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ext_congestion",
        render_panels(result, ("qos_delivery_ratio", "packets_per_subscriber")),
    )
    for x in result.x_values:
        static = result.cell(x, "DCRD")
        dtree = result.cell(x, "D-Tree")
        # Silence means loss: on loss-free links DCRD never leaves the
        # tree's hops, at any load, so it matches the tree's QoS and
        # sends (almost) the tree's packets.
        assert abs(static.qos_delivery_ratio - dtree.qos_delivery_ratio) <= 0.02
        assert static.packets_per_subscriber <= 1.2 * dtree.packets_per_subscriber
    # The sweep does reach saturation: queueing delay alone costs the
    # last point on-time deliveries.
    assert (
        result.cell(result.x_values[-1], "D-Tree").qos_delivery_ratio
        < result.cell(result.x_values[0], "D-Tree").qos_delivery_ratio - 0.1
    )
