"""The single-process live run: one scenario over asyncio TCP.

:func:`run_live_scenario` is the wall-clock twin of
:func:`repro.live.scenarios.run_sim_scenario`: an in-process driver over
one :class:`~repro.live.broker.PartitionRuntime` hosting every node —
a single-process live run *is* a one-partition fleet, so the live stack
is wired in exactly one place. What stays here is what a coordinator-less
run needs of its own: it publishes message ``i`` on the absolute schedule
``start + i * publish_interval`` (the fleet's pacing rule,
:meth:`~repro.live.clock.WallClock.sleep_until`: a late wake-up publishes
every due message back to back and never shifts the rest), registers each
expectation at the instant the message was actually published (delays
never leave this process, so no shared epoch is needed), and ends on the
partition's exact quiescence test
(:meth:`~repro.live.broker.PartitionRuntime.settled`) before reducing the
run with the same :func:`~repro.live.scenarios.harvest` as the sim.

A run that does not settle within the configured settle timeout raises
:class:`~repro.util.errors.SimulationError` — a live run with copies
still in flight is wedged, not slow.

The socket stack (:mod:`asyncio`, which loads :mod:`ssl`, and the
partition runtime built on it) is imported by the run, not by this
module: a simulator process that imports this module (the benchmark
harness, the census) never loads it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.live.config import LiveConfig
from repro.live.scenarios import Scenario, harvest


async def _run(
    scenario: Scenario,
    seed: int,
    sanitize: bool,
    config: LiveConfig,
    trace: bool,
) -> Dict[str, Any]:
    from repro.live.broker import PartitionRuntime

    runtime = PartitionRuntime(
        scenario, seed, scenario.topology().nodes, config, sanitize, trace
    )
    try:
        await runtime.start()
        ctx, strategy, clock = runtime.ctx, runtime.strategy, runtime.clock
        spec = ctx.workload.topic(scenario.topic)
        deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
        start = clock.now
        for i in range(scenario.publishes):
            await clock.sleep_until(start + i * scenario.publish_interval)
            msg_id = next(ctx.message_ids)
            ctx.metrics.expect(msg_id, scenario.topic, clock.now, deadlines)
            strategy.publish(spec, msg_id)
        await runtime.settled()
        runtime.finish()
    finally:
        await runtime.close()
    return harvest(
        scenario,
        ctx,
        strategy,
        runtime.ledger,
        runtime.record,
        runtime.transport.codec_errors,
    )


def run_live_scenario(
    scenario: Scenario,
    seed: int = 0,
    sanitize: bool = True,
    config: Optional[LiveConfig] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    """Execute *scenario* on the asyncio TCP substrate (blocking wrapper).

    With *trace* on, the facts carry the run's lifecycle stream as
    ``trace`` rows ``[t, kind, msg, transfer, node, peer]`` — the shape a
    fleet's merged report has.
    """
    import asyncio

    if config is None:
        config = LiveConfig()
    return asyncio.run(_run(scenario, seed, sanitize, config, trace))
