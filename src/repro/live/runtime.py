"""The single-process live run: one scenario over asyncio TCP.

:func:`run_live_scenario` is the wall-clock twin of
:func:`repro.live.scenarios.run_sim_scenario`: an in-process driver over
one :class:`~repro.live.broker.PartitionRuntime` hosting every node —
a single-process live run *is* a one-partition fleet, so the live stack
is wired in exactly one place. What stays here is what a coordinator-less
run needs of its own: it publishes the scripted workload paced relative
to the previous publish (expectations registered at the actual publish
instant — delays never leave this process, so no shared epoch is
needed), waits locally for the ARQ layer to drain, and reduces the run
with the same :func:`~repro.live.scenarios.harvest` as the sim.

A run that does not drain within the configured settle timeout raises
:class:`~repro.util.errors.SimulationError` — a live run with copies
still in flight is wedged, not slow.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro import trace as _trace
from repro.live.broker import PartitionRuntime
from repro.live.config import LiveConfig
from repro.live.scenarios import Scenario, harvest
from repro.pubsub.messages import next_message_id
from repro.util.errors import SimulationError

#: Consecutive idle polls required before the run counts as settled (the
#: ARQ in-flight count passes through zero between an arrival and the
#: handler's next dispatch only within one callback, but a stability
#: window keeps the check robust against future asynchrony).
_SETTLE_STABLE_POLLS = 3


async def _run(
    scenario: Scenario,
    seed: int,
    sanitize: bool,
    config: LiveConfig,
    tracer: Optional[_trace.FrameTracer] = None,
) -> Dict[str, Any]:
    runtime = PartitionRuntime(
        scenario, seed, scenario.topology().nodes, config, sanitize, tracer
    )
    try:
        await runtime.start()
        ctx, strategy, clock = runtime.ctx, runtime.strategy, runtime.clock
        spec = ctx.workload.topic(scenario.topic)
        deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
        for _ in range(scenario.publishes):
            msg_id = next_message_id()
            ctx.metrics.expect(msg_id, scenario.topic, clock.now, deadlines)
            strategy.publish(spec, msg_id)
            await asyncio.sleep(scenario.publish_interval)
        await _settle(runtime, config)
        runtime.finish()
    finally:
        await runtime.close()
    return harvest(scenario, ctx, strategy, runtime.ledger, runtime.sanitizer)


async def _settle(runtime: PartitionRuntime, config: LiveConfig) -> None:
    """Wait until every ARQ copy is settled (ACKed or abandoned).

    With an ordering plan attached, quiescence also requires the
    hold-back pipelines to be empty — a frame parked behind a gap still
    has a stall timer pending, so the run has not finished delivering.
    """
    clock = runtime.clock
    deadline = clock.now + config.settle_timeout
    stable = 0
    while True:
        status = runtime.status()
        if clock.now >= deadline:
            raise SimulationError(
                f"live run failed to settle within {config.settle_timeout}s "
                f"({status['in_flight']} ARQ copies still in flight, "
                f"{status['held']} frames held back)"
            )
        if status["in_flight"] == 0 and status["held"] == 0:
            stable += 1
            if stable >= _SETTLE_STABLE_POLLS:
                return
        else:
            stable = 0
        await asyncio.sleep(config.settle_poll)


def run_live_scenario(
    scenario: Scenario,
    seed: int = 0,
    sanitize: bool = True,
    config: Optional[LiveConfig] = None,
    tracer: Optional[_trace.FrameTracer] = None,
) -> Dict[str, Any]:
    """Execute *scenario* on the asyncio TCP substrate (blocking wrapper)."""
    if config is None:
        config = LiveConfig()
    return asyncio.run(_run(scenario, seed, sanitize, config, tracer))
