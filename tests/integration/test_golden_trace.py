"""Golden-trace regression pin: one forced failover, byte-exact JSONL.

A diamond topology (fast route 0-1-3, slow route 0-2-3) with link 1-3
scripted dead forces the paper's full recovery sequence for one DCRD
message: the copy reaches broker 1, its transmission to 3 dies, the ACK
timer expires (m=1), broker 1 fails the hop over, finds no other
downstream candidate and *bounces* the copy back upstream to 0 (§III-D),
which re-dispatches over the slow branch — redelivering at 3 with the
revisit chain ``0 -> 1 -> 0 -> 2 -> 3``.

``data/golden_trace.jsonl`` pins the tracing record's JSONL export of that
run byte-for-byte: every event, timestamp, transfer id and info field.
The run derives deterministically from the scripted world, so any drift
is a behavioural change that must be reviewed (and the pin regenerated)
deliberately — exactly like the counter pins in ``test_golden.py``.

Regenerate after a reviewed change with::

    PYTHONPATH=src:. python -c "
    from tests.integration.test_golden_trace import write_golden; write_golden()"
"""

from pathlib import Path

import pytest

from repro import probes as _probes
from repro import trace as _trace
from repro.core.forwarding import DcrdStrategy
from repro.record import RunRecord
from repro.trace import load_jsonl
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.jsonl"

#: The exact lifecycle sequence the scenario must produce (event kinds in
#: recording order; timestamps and ids are pinned by the JSONL file).
EXPECTED_KINDS = (
    "publish",  # root copy at origin 0
    "transmit",  # 0 -> 1 (fast route)
    "arrive",  # at 1
    "transmit",  # 1 -> 3, dies on the failed link...
    "link_drop",  # ...at departure
    "ack",  # 0's copy to 1 confirmed
    "ack_timeout",  # m=1 budget exhausted at 1
    "failover",  # hop 3 marked dead at 1
    "bounce",  # §III-D: back upstream to 0
    "transmit",  # 1 -> 0 (the bounce copy)
    "arrive",  # back at 0
    "transmit",  # 0 -> 2 (slow branch)
    "ack",  # bounce copy confirmed
    "arrive",  # at 2
    "transmit",  # 2 -> 3
    "ack",  # 0 -> 2 confirmed
    "arrive",  # at 3
    "deliver",  # redelivered
    "ack",  # 2 -> 3 confirmed
)


def traced_run():
    """Execute the scenario under a tracing record; returns (ctx, tracer)."""
    topo = make_topology(
        [
            (0, 1, 0.010),
            (1, 3, 0.010),
            (0, 2, 0.020),
            (2, 3, 0.020),
        ]
    )
    failures = ScriptedFailures({(1, 3): [(0.0, 1e9)]})
    workload = single_topic_workload(0, [(3, 1.0)])
    ctx = build_ctx(topo, workload, failures=failures, m=1)
    tracer = RunRecord(trace=True)
    _probes.attach(tracer)
    try:
        strategy = DcrdStrategy(ctx)
        strategy.setup()
        attach_brokers(ctx, strategy)
        spec = workload.topics[0]
        ctx.metrics.expect(
            1, spec.topic, 0.0, {s.node: s.deadline for s in spec.subscriptions}
        )
        strategy.publish(spec, msg_id=1)
        ctx.sim.run(until=10.0)
    finally:
        _probes.detach(tracer)
    return ctx, tracer


def export_text(tracer) -> str:
    import io

    buffer = io.StringIO()
    _trace.export_jsonl(tracer, buffer)
    return buffer.getvalue()


def write_golden() -> None:  # pragma: no cover - regeneration helper
    _, tracer = traced_run()
    GOLDEN_PATH.write_text(export_text(tracer), encoding="utf-8")


def test_trace_matches_pinned_jsonl_exactly():
    _, tracer = traced_run()
    assert export_text(tracer) == GOLDEN_PATH.read_text(encoding="utf-8")


def test_failover_bounce_redeliver_sequence():
    ctx, tracer = traced_run()
    assert ctx.metrics.outcome(1, 3).delivered
    events = tracer.events()
    assert tuple(e.kind for e in events) == EXPECTED_KINDS

    failover = next(e for e in events if e.kind == "failover")
    assert (failover.node, failover.peer) == (1, 3)
    bounce = next(e for e in events if e.kind == "bounce")
    assert (bounce.node, bounce.peer) == (1, 0)
    assert bounce.seq > failover.seq
    # The bounce copy really went back over the 1->0 direction.
    bounce_tx = next(e for e in events if e.kind == "transmit" and e.node == 1 and e.peer == 0)
    assert bounce_tx.transfer == bounce.transfer
    deliver = events[-2]
    assert deliver.kind == "deliver"
    assert deliver.node == 3
    assert deliver.seq > bounce.seq


def test_journey_chain_revisits_the_origin():
    _, tracer = traced_run()
    journey = _trace.journey(tracer, 1, 3)
    assert journey.chain == (0, 1, 0, 2, 3)
    assert journey.complete
    assert journey.origin == 0
    assert all(hop.attempts == 1 for hop in journey.hops)
    for previous, current in zip(journey.hops, journey.hops[1:]):
        assert previous.dst == current.src


def test_delay_breakdown_blames_the_ack_timeout():
    ctx, tracer = traced_run()
    breakdown = _trace.delay_breakdown(tracer, 1, 3)
    assert breakdown.total == ctx.metrics.outcome(1, 3).delay
    # The only non-propagation delay is broker 1 waiting out the ACK timer
    # before the failover (2*alpha + slack = 21 ms on the 10 ms link).
    assert breakdown.timeout_wait == pytest.approx(0.021)
    assert breakdown.retransmission == 0.0  # m=1: no same-link retries
    assert breakdown.queueing == 0.0
    assert breakdown.components_sum() == breakdown.total


def test_retransmission_tree_shows_the_dead_branch():
    _, tracer = traced_run()
    (root,) = _trace.retransmission_tree(tracer, 1)
    assert (root["src"], root["dst"], root["fate"]) == (0, 1, "arrived")
    fates = {(c["src"], c["dst"]): c["fate"] for c in root["children"]}
    assert fates == {(1, 3): "lost", (1, 0): "arrived"}


def test_pinned_jsonl_reconstructs_the_journey_offline():
    """The exported artefact alone supports the full query API."""
    tracer = load_jsonl(str(GOLDEN_PATH))
    journey = _trace.journey(tracer, 1, 3)
    assert journey.chain == (0, 1, 0, 2, 3)
    breakdown = _trace.delay_breakdown(tracer, 1, 3)
    assert breakdown.components_sum() == breakdown.total
    assert breakdown.timeout_wait == pytest.approx(0.021)
