"""Tests for the persistency-mode extension (§III)."""

import pytest

from repro.extensions.persistence import PersistentDcrdStrategy
from repro.util.errors import ConfigurationError
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)


def diamond():
    return make_topology(
        [(0, 1, 0.010), (1, 3, 0.010), (0, 2, 0.020), (2, 3, 0.020)]
    )


def run_once(topo, workload, failures=None, until=60.0, **strategy_kwargs):
    ctx = build_ctx(topo, workload, failures=failures)
    strategy = PersistentDcrdStrategy(ctx, **strategy_kwargs)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, 0, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=until)
    return ctx, strategy


def test_behaves_like_dcrd_when_healthy():
    topo = diamond()
    workload = single_topic_workload(0, [(3, 1.0)])
    ctx, strategy = run_once(topo, workload)
    assert ctx.metrics.outcome(1, 3).delivered
    assert strategy.store.stored == 0


def test_recovers_after_transient_total_outage():
    # Both branches dead for 2 s, then the network heals: plain DCRD drops
    # the packet, the persistency mode delivers it late.
    topo = diamond()
    failures = ScriptedFailures({(0, 1): [(0.0, 2.0)], (0, 2): [(0.0, 2.0)]})
    workload = single_topic_workload(0, [(3, 1.0)])
    ctx, strategy = run_once(topo, workload, failures=failures, retry_backoff=1.0)
    outcome = ctx.metrics.outcome(1, 3)
    assert outcome.delivered
    assert not outcome.on_time  # recovered, but after the deadline
    assert strategy.store.stored == 1
    assert strategy.store.recovered == 1
    assert strategy.still_pending == 0


def test_gives_up_after_retry_budget():
    topo = make_topology([(0, 1, 0.010)])
    failures = ScriptedFailures({(0, 1): [(0.0, 1e9)]})
    workload = single_topic_workload(0, [(1, 1.0)])
    ctx, strategy = run_once(
        topo, workload, failures=failures, retry_backoff=0.5, max_retries=3
    )
    outcome = ctx.metrics.outcome(1, 1)
    assert not outcome.delivered
    assert outcome.gave_up
    assert strategy.store.exhausted == 1
    assert strategy.still_pending == 0
    # Exhausted entries must not be re-persisted by late task failures.
    assert strategy.store.stored == 1


def test_no_duplicate_store_entries_per_destination():
    topo = diamond()
    failures = ScriptedFailures(
        {(0, 1): [(0.0, 5.0)], (0, 2): [(0.0, 5.0)]}
    )
    workload = single_topic_workload(0, [(3, 1.0)])
    ctx, strategy = run_once(topo, workload, failures=failures, retry_backoff=1.0)
    assert strategy.store.stored == 1


def test_invalid_parameters_rejected():
    topo = diamond()
    ctx = build_ctx(topo, single_topic_workload(0, [(3, 1.0)]))
    with pytest.raises(ConfigurationError):
        PersistentDcrdStrategy(ctx, retry_backoff=0.0)
    with pytest.raises(ConfigurationError):
        PersistentDcrdStrategy(ctx, max_retries=0)


def test_registered_in_strategy_catalogue():
    from repro.experiments.runner import STRATEGIES

    assert "DCRD+persist" in STRATEGIES


def test_full_run_dominates_plain_dcrd_on_delivery():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_single

    config = ExperimentConfig(
        topology_kind="regular",
        degree=4,
        num_nodes=12,
        failure_probability=0.15,
        duration=15.0,
        drain=20.0,
        num_topics=4,
    )
    plain = run_single(config, "DCRD", seed=3)
    persistent = run_single(config, "DCRD+persist", seed=3)
    assert persistent.delivery_ratio >= plain.delivery_ratio


def test_traced_custody_journeys_are_complete(tmp_path):
    """Custody events flow through the probe bus into the run record, so a
    stored-then-redelivered frame has a *complete* journey: the lineage
    link recorded at redelivery stitches the fresh copy to the transfer
    that carried the frame into the storing broker, and ``journey()``
    walks straight through the custody gap back to the publisher.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_environment
    from repro import trace
    from repro.trace import load_jsonl

    config = ExperimentConfig(
        topology_kind="regular",
        degree=4,
        num_nodes=12,
        failure_probability=0.15,
        duration=15.0,
        drain=20.0,
        num_topics=4,
        trace=True,
    )
    env = build_environment(config, "DCRD+persist", seed=1)
    env.execute()
    tracer = env.record

    custody = [e for e in tracer.events() if e.kind == "custody"]
    stored = [e for e in custody if e.info["action"] == "stored"]
    redelivered = [e for e in custody if e.info["action"] == "redelivered"]
    assert stored and redelivered  # the run must actually trip persistence

    delivered = {(e.msg, e.node) for e in tracer.events() if e.kind == "deliver"}
    followed = 0
    for event in redelivered:
        pair = (event.msg, event.info["subscriber"])
        if pair not in delivered:
            continue  # retry still in flight (or lost again) at run end
        journey = trace.journey(tracer, *pair)
        # Pre-bus behaviour was complete=False here: the walk hit the
        # fresh copy's parentless transfer and gave up at the broker.
        assert journey.complete
        assert event.node in journey.chain  # passes through the custodian
        followed += 1
    assert followed > 0

    # The custody lineage survives a JSONL round trip.
    path = tmp_path / "persist.jsonl"
    trace.export_jsonl(tracer, path)
    loaded = load_jsonl(str(path))
    for event in redelivered:
        pair = (event.msg, event.info["subscriber"])
        if pair in delivered:
            assert (
                trace.journey(loaded, *pair).chain == trace.journey(tracer, *pair).chain
            )
            assert trace.journey(loaded, *pair).complete
