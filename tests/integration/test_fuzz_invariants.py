"""Property fuzz: random worlds, every strategy, universal invariants.

Hypothesis drives random (topology, hazard, workload, protocol, queueing)
settings through full simulations of every registered strategy — core and
extensions alike — and asserts the invariants no configuration may
violate:

* the run terminates and drains its event queue;
* delivered <= expected, on_time <= delivered; ratios in [0, 1];
* every delivered outcome has non-negative delay and hops >= 1 (except
  publisher-local deliveries);
* traffic counters are consistent (sent >= delivered per frame kind);
* the run is reproducible: a second run with the same seed matches, and a
  *sanitized* run matches too (the sanitizer observes, never perturbs).

Every fuzzed world runs with a sanitizing record (``sanitize=True``), so the
whole invariant suite of :mod:`repro.sanity` — event-order, path-cycle,
duplicate-delivery, timer-lifecycle, Theorem-1 order, conservation — is
enforced inside every example on top of the explicit assertions below.

The worlds' run records also trace (``trace=True``), adding the
trace-level properties:

* every delivered pair's :func:`~repro.trace.journey` is a contiguous hop
  chain ending at the subscriber (and, for non-persistency strategies,
  starting at the publisher);
* its :func:`~repro.trace.delay_breakdown` components are
  non-negative and sum *exactly* (``==`` under ``math.fsum``, not
  ``approx``) to the recorded delivery delay.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

# Imported for its side effect: registers the extension strategies so the
# fuzz matrix below is the same regardless of test-collection order.
import repro.extensions  # noqa: F401
from repro import trace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import STRATEGIES, build_environment
from repro.overlay.links import QUEUE_DISCIPLINES, FrameKind

configs = st.fixed_dictionaries(
    {
        "topology_kind": st.sampled_from(["full_mesh", "regular"]),
        "num_nodes": st.sampled_from([6, 10, 14]),
        "degree": st.sampled_from([3, 4, 5]),
        "failure_probability": st.sampled_from([0.0, 0.05, 0.2]),
        "loss_rate": st.sampled_from([0.0, 1e-3, 0.05]),
        "node_failure_probability": st.sampled_from([0.0, 0.05]),
        "m": st.sampled_from([1, 2]),
        "deadline_factor": st.sampled_from([1.5, 3.0]),
        "num_topics": st.sampled_from([2, 4]),
        # Finite-capacity links under every queue discipline, including
        # the EDF overload policy that drops already-expired frames.
        "link_service_time": st.sampled_from([None, 0.0005]),
        "queue_discipline": st.sampled_from(QUEUE_DISCIPLINES),
        # Per-topic urgency classes (the priority extension's workload).
        "deadline_factor_choices": st.sampled_from([None, (1.5, 3.0, 6.0)]),
    }
)


def build_config(params) -> ExperimentConfig:
    if params["topology_kind"] == "full_mesh":
        params = dict(params, degree=None)
    return ExperimentConfig(
        duration=6.0, drain=4.0, sanitize=True, trace=True, **params
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=configs, seed=st.integers(min_value=0, max_value=999))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_universal_invariants(strategy, params, seed):
    config = build_config(params)
    env = build_environment(config, strategy, seed)
    summary = env.execute()

    # Termination: nothing left ticking except (possibly) stopped periodic
    # processes' cancelled events.
    assert env.ctx.sim.now == config.end_time

    # The sanitizer really ran and found nothing (it raises on the first
    # violation, but the counter doubles as a liveness check).
    assert summary.perf["sanity.violations"] == 0
    assert summary.perf["sanity.events_checked"] > 0

    # Accounting sanity.
    assert 0 <= summary.on_time <= summary.delivered <= summary.expected_deliveries
    assert 0.0 <= summary.qos_delivery_ratio <= summary.delivery_ratio <= 1.0
    assert summary.data_transmissions >= 0
    stats = env.ctx.network.stats
    for kind in FrameKind:
        assert stats.delivered[kind] <= stats.sent[kind]

    # Outcome-level sanity.
    for outcome in env.ctx.metrics.outcomes():
        if outcome.delivered:
            assert outcome.delay >= 0.0
            if outcome.hops is not None:
                assert outcome.hops >= 0

    # Trace-level properties: every delivered pair reconstructs to a
    # contiguous journey whose delay decomposes exactly.
    tracer = env.record
    assert tracer is not None
    assert tracer.events_dropped == 0  # worlds fit the ring buffer
    for outcome in env.ctx.metrics.outcomes():
        if not outcome.delivered:
            continue
        journey = trace.journey(tracer, outcome.msg_id, outcome.subscriber)
        assert journey.chain[-1] == outcome.subscriber
        for previous, current in zip(journey.hops, journey.hops[1:]):
            assert previous.dst == current.src
        if "persist" not in strategy:
            # Persistency-mode redeliveries legitimately restart at the
            # custody broker; everything else must chain from the origin.
            assert journey.complete
            assert journey.chain[0] == journey.origin
        breakdown = trace.delay_breakdown(tracer, outcome.msg_id, outcome.subscriber)
        assert breakdown.total == outcome.delay
        assert breakdown.transmission >= 0.0
        assert breakdown.queueing >= 0.0
        assert breakdown.timeout_wait >= 0.0
        assert breakdown.retransmission >= 0.0
        assert (
            math.fsum(
                (
                    breakdown.transmission,
                    breakdown.queueing,
                    breakdown.timeout_wait,
                    breakdown.retransmission,
                )
            )
            == outcome.delay
        )

    # Hazard-free worlds with infinite-capacity links must be perfect for
    # every strategy. (Finite capacity is excluded: queueing can push a
    # frame past an ARQ timeout or — under "edf+drop" — drop it.)
    if (
        config.failure_probability == 0.0
        and config.loss_rate == 0.0
        and config.node_failure_probability == 0.0
        and config.link_service_time is None
    ):
        assert summary.delivery_ratio == pytest.approx(1.0)


@settings(max_examples=6, deadline=None)
@given(params=configs, seed=st.integers(min_value=0, max_value=999))
def test_bitwise_reproducibility(params, seed):
    config = build_config(params).with_updates(sanitize=False)
    first = build_environment(config, "DCRD", seed).execute()
    second = build_environment(config, "DCRD", seed).execute()
    assert first.as_dict() == second.as_dict()

    # Observation-only: the sanitized run differs solely by its sanity.*
    # perf counters.
    sanitized = build_environment(
        config.with_updates(sanitize=True), "DCRD", seed
    ).execute()
    a = dict(first.as_dict())
    b = dict(sanitized.as_dict())
    a.pop("perf", None)
    b.pop("perf", None)
    assert a == b

    # Same guarantee for tracing: a traced run differs solely by
    # its trace.* perf counters.
    traced = build_environment(
        config.with_updates(trace=True), "DCRD", seed
    ).execute()
    c = dict(traced.as_dict())
    c.pop("perf", None)
    assert c == a
