"""Live load test: a multi-process band and a single-process ramp to the knee.

**The band** measures the *real* deployment: the clean 6-node ring world
runs on six broker OS processes (one per node, coordinated by
:mod:`repro.live.cluster`) at 10/25/50 msg/s, and the end-to-end
delivery-delay distribution observed on real TCP sockets is compared
against the discrete-event simulator's prediction for the identical
world. The assertion is a tolerance band, not equality: the simulator's
delays are pure link propagation (hops x imposed delay), while the live
fleet adds scheduler wakeups, socket writes and framing on top. The band
says the overhead stays bounded — every delivery quantile of the live
CDF sits within ``TOLERANCE`` seconds above the simulated quantile, and
never meaningfully below it (the fleet cannot beat physics).

**The ramp** looks for the knee of one broker event loop: all six nodes
in one process, ``RAMP_MESSAGES`` messages at each nominal rate of
``RAMP_RATES``, published open-loop on an absolute schedule (a late
publish does not push the next one back, and every delay is timed from
the instant the message was *due*). A pair is on time when it arrives
within ``ON_TIME_FACTOR`` x its shortest-path delay (12.5-20 ms of slack
on this ring); the knee is the highest rate that keeps 99 % of the pairs
on time.

Output table: ``benchmarks/output/live_load.txt``. ``python
bench_live_load.py`` prints the ramp table alone, which is how the
table of another checkout (a parent commit) is taken for a before/after
pair — the file uses only what both sides of such a pair offer.
"""

import asyncio
import dataclasses
import os
import time

from repro import probes
from repro.live.broker import PartitionRuntime
from repro.live.cluster import run_cluster_scenario
from repro.live.scenarios import harvest, make_scenario, run_sim_scenario

from _common import save_report

#: One broker OS process per ring node.
PROCESSES = 6

#: (publish rate in msg/s, messages per run) sweep points.
RATES = ((10.0, 12), (25.0, 12), (50.0, 12))

#: Live quantile may exceed the simulated one by at most this much.
TOLERANCE = 0.25

#: Live quantile may undercut the simulated one by at most this much
#: (clock granularity; real sockets cannot beat modelled propagation).
UNDERCUT = 0.02

QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)

#: Nominal publish rates (msg/s) of the single-process ramp.
RAMP_RATES = (100.0, 250.0, 500.0, 1000.0, 2000.0)
RAMP_MESSAGES = 600
#: A pair is on time within this multiple of its shortest-path delay.
ON_TIME_FACTOR = 1.5
#: Idle lead before the first scheduled publish (s).
RAMP_LEAD = 0.05


def _quantile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def load_scenario(rate: float, publishes: int):
    """The clean ring world re-parameterized to one sweep point."""
    return dataclasses.replace(
        make_scenario("clean"),
        name=f"load_{rate:g}hz",
        publishes=publishes,
        publish_interval=1.0 / rate,
    )


def sweep():
    points = []
    for rate, publishes in RATES:
        sim = run_sim_scenario(load_scenario(rate, publishes), seed=0, sanitize=True)
        live = run_cluster_scenario(
            load_scenario(rate, publishes),
            seed=0,
            sanitize=True,
            processes=int(os.environ.get("REPRO_BENCH_LIVE_PROCESSES", PROCESSES)),
        )
        points.append((rate, publishes, sim, live))
    return points


def render(points) -> str:
    lines = [
        "Live load test: publish-rate sweep, %d broker processes" % PROCESSES,
        "world: clean 6-node ring, subscribers {2, 3, 4}, m=2",
        "delay CDF quantiles (seconds), live fleet vs simulator prediction",
        "",
        "%-10s %-6s %-10s %-6s " % ("rate", "msgs", "substrate", "pairs")
        + " ".join("p%02d" % int(q * 100) for q in QUANTILES),
    ]
    for rate, publishes, sim, live in points:
        for label, result in (("sim", sim), ("live", live)):
            delays = [delay for _, _, delay in result["delays"]]
            lines.append(
                "%-10s %-6d %-10s %-6d " % ("%g/s" % rate, publishes, label, len(delays))
                + " ".join("%.3f" % _quantile(delays, q) for q in QUANTILES)
            )
        sim_delays = [d for _, _, d in sim["delays"]]
        live_delays = [d for _, _, d in live["delays"]]
        worst = max(
            _quantile(live_delays, q) - _quantile(sim_delays, q) for q in QUANTILES
        )
        lines.append(
            "%-10s %-6s %-10s %-6s worst quantile overhead: %+.3f s"
            % ("", "", "delta", "", worst)
        )
    lines.append("")
    lines.append("tolerance band: sim_q - %.2f <= live_q <= sim_q + %.2f"
                 % (UNDERCUT, TOLERANCE))
    return "\n".join(lines)


class _PublishInstants(probes.ProbeObserver):
    """When each message actually left its publisher."""

    def __init__(self):
        self.instants = []

    def on_publish(self, frame):
        self.instants.append(frame.publish_time)


async def _ramp_point(rate: float):
    scenario = load_scenario(rate, RAMP_MESSAGES)
    runtime = PartitionRuntime(scenario, 0, scenario.topology().nodes, sanitize=False)
    published = _PublishInstants()
    probes.attach(published)
    try:
        await runtime.start()
        publishing = runtime.begin(
            time.time(), [RAMP_LEAD + i / rate for i in range(RAMP_MESSAGES)]
        )
        await asyncio.sleep(RAMP_LEAD)
        cpu, wall = time.process_time(), time.perf_counter()
        await publishing
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        await runtime.settled()
        runtime.finish()
    finally:
        await runtime.close()
        probes.detach(published)
    result = harvest(
        scenario,
        runtime.ctx,
        runtime.strategy,
        runtime.ledger,
        runtime.record,
        runtime.transport.codec_errors,
    )
    instants = published.instants
    return {
        "rate": rate,
        "achieved": (len(instants) - 1) / (instants[-1] - instants[0]),
        "busy": cpu / wall,
        "expected": result["expected"],
        "delays": result["delays"],
    }


def ramp():
    """One row per nominal rate, plus the simulator's per-subscriber delay."""
    sim = run_sim_scenario(load_scenario(RAMP_RATES[0], 3), seed=0, sanitize=False)
    shortest = {sub: delay for _, sub, delay in sim["delays"]}
    rows = []
    for rate in RAMP_RATES:
        row = asyncio.run(_ramp_point(rate))
        overheads = [delay - shortest[sub] for _, sub, delay in row["delays"]]
        row["on_time"] = sum(
            delay <= ON_TIME_FACTOR * shortest[sub] for _, sub, delay in row["delays"]
        ) / row["expected"]
        row["overhead_p50"] = _quantile(overheads, 0.50)
        row["overhead_p99"] = _quantile(overheads, 0.99)
        rows.append(row)
    return rows


def knee(rows):
    """The highest nominal rate that keeps 99 % of the pairs on time.

    A lower rate that misses 0.99 with the loop mostly idle is a stall
    (a collector pause, a descheduled VM: 6 late messages of 600 are
    enough), not the knee; :func:`render_ramp` lists those separately.
    """
    on_time = [row["rate"] for row in rows if row["on_time"] >= 0.99]
    return max(on_time) if on_time else None


def render_ramp(rows) -> str:
    lines = [
        "Single-process ramp: %d messages per rate, open loop on an absolute schedule"
        % RAMP_MESSAGES,
        "world: clean 6-node ring on one event loop; on time = within %.1f x shortest path"
        % ON_TIME_FACTOR,
        "",
        "%-9s %-10s %-9s %-7s %-8s %-13s %-13s"
        % ("nominal", "achieved", "cpu_busy", "pairs", "on_time", "overhead_p50", "overhead_p99"),
    ]
    for row in rows:
        lines.append(
            "%-9s %-10s %-9.2f %-7d %-8.4f %-13s %-13s"
            % (
                "%g/s" % row["rate"],
                "%.0f/s" % row["achieved"],
                row["busy"],
                len(row["delays"]),
                row["on_time"],
                "%+.4f s" % row["overhead_p50"],
                "%+.4f s" % row["overhead_p99"],
            )
        )
    best = knee(rows)
    lines.append("")
    if best is None:
        lines.append("knee: below %g msg/s" % RAMP_RATES[0])
    else:
        lines.append("knee: on-time >= 0.99 up to %g msg/s nominal" % best)
        for row in rows:
            if row["rate"] < best and row["on_time"] < 0.99:
                lines.append(
                    "stall below the knee: %g msg/s at cpu_busy %.2f, on-time %.4f"
                    % (row["rate"], row["busy"], row["on_time"])
                )
    return "\n".join(lines)


def test_live_load(benchmark):
    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = ramp()
    save_report("live_load", render(points) + "\n\n" + render_ramp(rows))
    for row in rows:
        # Open loop or not, nothing may be lost on the clean ring.
        assert len(row["delays"]) == row["expected"] == RAMP_MESSAGES * 3, row["rate"]
    assert knee(rows) is not None, "one loop carries no ramp rate on time"
    for rate, publishes, sim, live in points:
        # Full delivery and clean invariants at every rate.
        assert len(live["delivered"]) == live["expected"] == publishes * 3, rate
        assert live["delivered"] == sim["delivered"], rate
        assert live["violations"] == 0, rate
        assert live["conservation"]["leaked"] == 0, rate
        assert live["timers_started"] == live["timers_settled"], rate
        # The tolerance band, quantile by quantile.
        sim_delays = [d for _, _, d in sim["delays"]]
        live_delays = [d for _, _, d in live["delays"]]
        assert len(live_delays) == len(sim_delays), rate
        for q in QUANTILES:
            sim_q = _quantile(sim_delays, q)
            live_q = _quantile(live_delays, q)
            assert sim_q - UNDERCUT <= live_q <= sim_q + TOLERANCE, (rate, q)


if __name__ == "__main__":
    print(render_ramp(ramp()))
