"""Tests for the FEC (forward error correction) baseline extension."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import STRATEGIES, build_environment
from repro.extensions.fec import FecMultipathStrategy, fec_study
from repro.routing.paths import path_links, select_diverse_paths
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)
from tests.integration.test_golden import GOLDEN_CONFIG

ALWAYS = (0.0, 1e9)


def triple_diamond():
    # Three link-disjoint routes 0 -> 4 with distinct delays.
    return make_topology(
        [
            (0, 1, 0.010), (1, 4, 0.010),
            (0, 2, 0.020), (2, 4, 0.020),
            (0, 3, 0.030), (3, 4, 0.030),
        ]
    )


def run_once(topo, workload, failures=None, until=10.0, k=2, r=1):
    ctx = build_ctx(topo, workload, failures=failures)

    class Coded(FecMultipathStrategy):
        pass

    Coded.k, Coded.r = k, r
    strategy = Coded(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, 0, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=until)
    return ctx, strategy


class TestPathSelection:
    def test_diverse_paths_prefer_disjoint(self):
        candidates = [[0, 1, 4], [0, 2, 4], [0, 3, 4]]
        chosen = select_diverse_paths(candidates, 3)
        links = [path_links(p) for p in chosen]
        assert links[0] & links[1] == set()
        assert links[0] & links[2] == set()

    def test_exhausted_candidates_repeat(self):
        chosen = select_diverse_paths([[0, 1]], 3)
        assert chosen == [[0, 1], [0, 1], [0, 1]]


class TestDelivery:
    def test_delivery_requires_k_fragments(self):
        # k=2: the first fragment alone must NOT deliver; the second does.
        topo = triple_diamond()
        workload = single_topic_workload(0, [(4, 1.0)])
        ctx, _ = run_once(topo, workload, k=2, r=1)
        outcome = ctx.metrics.outcome(1, 4)
        assert outcome.delivered
        # Fastest path delivers at 20 ms, second at 40 ms: decode at 40 ms.
        assert outcome.delay == pytest.approx(0.040)

    def test_survives_one_path_failure(self):
        topo = triple_diamond()
        failures = ScriptedFailures({(0, 1): [ALWAYS]})
        workload = single_topic_workload(0, [(4, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures, k=2, r=1)
        outcome = ctx.metrics.outcome(1, 4)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.060)  # paths 2 and 3 decode

    def test_fails_when_redundancy_exhausted(self):
        topo = triple_diamond()
        failures = ScriptedFailures({(0, 1): [ALWAYS], (0, 2): [ALWAYS]})
        workload = single_topic_workload(0, [(4, 1.0)])
        ctx, strategy = run_once(topo, workload, failures=failures, k=2, r=1)
        outcome = ctx.metrics.outcome(1, 4)
        assert not outcome.delivered
        assert outcome.gave_up
        assert strategy.abandoned == 2

    def test_k1_r1_degenerates_to_multipath_duplicates(self):
        topo = triple_diamond()
        workload = single_topic_workload(0, [(4, 1.0)])
        ctx, _ = run_once(topo, workload, k=1, r=1)
        outcome = ctx.metrics.outcome(1, 4)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.020)  # first copy decodes
        assert outcome.duplicates == 1

    def test_traffic_is_n_fragment_paths(self):
        topo = triple_diamond()
        workload = single_topic_workload(0, [(4, 1.0)])
        ctx, _ = run_once(topo, workload, k=2, r=1)
        assert ctx.network.stats.data_sent() == 6  # three 2-hop fragments


class UncodedFec(FecMultipathStrategy):
    """The FEC class set to Multipath's preset: (k, r) = (1, 1), pool 5."""

    k, r, candidate_pool = 1, 1, 5


PARITY_WORLDS = {
    "golden": (GOLDEN_CONFIG, 123),
    "full_mesh": (
        ExperimentConfig(num_nodes=10, failure_probability=0.06, duration=10.0),
        7,
    ),
    # One path per pair: the degenerate case, one copy per subscriber.
    "line": (
        ExperimentConfig(
            topology_kind="line", num_nodes=8, failure_probability=0.06, duration=10.0
        ),
        7,
    ),
}


@pytest.mark.parametrize("world", sorted(PARITY_WORLDS))
def test_k1_r1_pool5_is_multipath(world, monkeypatch):
    config, seed = PARITY_WORLDS[world]
    monkeypatch.setitem(STRATEGIES, "FEC(1,1)", UncodedFec)
    multipath = build_environment(config, "Multipath", seed)
    uncoded = build_environment(config, "FEC(1,1)", seed)
    for spec in multipath.ctx.workload.topics:
        for sub in spec.subscriptions:
            if sub.node != spec.publisher:
                assert uncoded.strategy.paths_for(
                    spec.topic, sub.node
                ) == multipath.strategy.paths_for(spec.topic, sub.node)
    expected, got = multipath.execute(), uncoded.execute()
    assert expected.delivered > 0
    for counter in ("delivered", "on_time", "data_transmissions", "duplicates"):
        assert getattr(got, counter) == getattr(expected, counter), counter


class TestStudy:
    def test_registered_in_catalogue(self):
        assert "FEC" in STRATEGIES

    def test_study_runs(self):
        result = fec_study(
            duration=4.0,
            seeds=(0,),
            failure_probabilities=(0.0, 0.06),
            strategies=("FEC", "Multipath"),
        )
        assert result.x_values == [0.0, 0.06]
        fec = result.cell(0.0, "FEC")
        multipath = result.cell(0.0, "Multipath")
        # (3, 2) code carries less *volume* redundancy than duplication
        # (fragments are 1/k sized), though it sends more frames.
        assert fec.traffic_per_subscriber < multipath.traffic_per_subscriber
        assert fec.packets_per_subscriber > fec.traffic_per_subscriber
