"""Unit tests for the transient failure schedules."""

import numpy as np
import pytest

from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.topology import full_mesh
from repro.util.errors import ConfigurationError
from tests.conftest import make_topology


@pytest.fixture
def topo(rng):
    return full_mesh(10, rng)


class TestFailureSchedule:
    def test_pf_zero_never_fails(self, topo):
        schedule = FailureSchedule(topo, 0.0, seed=1)
        for epoch in range(50):
            assert schedule.failed_edges(epoch) == frozenset()

    def test_pf_one_fails_everything(self, topo):
        schedule = FailureSchedule(topo, 1.0, seed=1)
        assert schedule.failed_edges(3) == topo.edge_set()

    def test_same_seed_same_schedule(self, topo):
        a = FailureSchedule(topo, 0.3, seed=7)
        b = FailureSchedule(topo, 0.3, seed=7)
        for epoch in range(20):
            assert a.failed_edges(epoch) == b.failed_edges(epoch)

    def test_different_seeds_differ(self, topo):
        a = FailureSchedule(topo, 0.3, seed=7)
        b = FailureSchedule(topo, 0.3, seed=8)
        assert any(
            a.failed_edges(epoch) != b.failed_edges(epoch) for epoch in range(20)
        )

    def test_failure_fraction_approximates_pf(self, topo):
        pf = 0.1
        schedule = FailureSchedule(topo, pf, seed=3)
        total = sum(len(schedule.failed_edges(epoch)) for epoch in range(400))
        observed = total / (400 * topo.num_edges)
        assert observed == pytest.approx(pf, rel=0.15)

    def test_is_failed_respects_epoch_window(self, topo):
        schedule = FailureSchedule(topo, 0.5, seed=11)
        edge = next(iter(schedule.failed_edges(4)))
        assert schedule.is_failed(*edge, time=4.0)
        assert schedule.is_failed(*edge, time=4.999)
        # The adjacent epochs are drawn independently; query them through
        # the schedule to confirm the window boundaries are respected.
        assert schedule.is_failed(*edge, time=5.0) == (
            edge in schedule.failed_edges(5)
        )

    def test_is_failed_symmetric(self, topo):
        schedule = FailureSchedule(topo, 0.5, seed=11)
        edge = next(iter(schedule.failed_edges(0)))
        assert schedule.is_failed(edge[0], edge[1], 0.5)
        assert schedule.is_failed(edge[1], edge[0], 0.5)

    def test_custom_epoch_length(self, topo):
        schedule = FailureSchedule(topo, 0.5, seed=2, epoch=10.0)
        assert schedule.epoch_index(25.0) == 2
        assert schedule.epoch_index(9.99) == 0

    def test_invalid_probability_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            FailureSchedule(topo, 1.5, seed=1)

    def test_invalid_epoch_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            FailureSchedule(topo, 0.1, seed=1, epoch=0.0)

    def test_queries_are_cached_and_stable(self, topo):
        schedule = FailureSchedule(topo, 0.4, seed=5)
        first = schedule.failed_edges(9)
        second = schedule.failed_edges(9)
        assert first is second

    def test_failure_probability_is_the_long_run_failed_fraction(self, topo):
        assert FailureSchedule(topo, 0.07, seed=1).failure_probability == 0.07


class TestNodeFailureSchedule:
    def test_pf_zero_never_fails(self, topo):
        schedule = NodeFailureSchedule(topo, 0.0, seed=1)
        assert schedule.failed_nodes(10) == frozenset()

    def test_pf_one_fails_all_unprotected(self, topo):
        schedule = NodeFailureSchedule(
            topo, 1.0, seed=1, protected_nodes=frozenset({0, 1})
        )
        failed = schedule.failed_nodes(0)
        assert 0 not in failed and 1 not in failed
        assert failed == frozenset(range(2, topo.num_nodes))

    def test_deterministic_per_seed(self, topo):
        a = NodeFailureSchedule(topo, 0.3, seed=9)
        b = NodeFailureSchedule(topo, 0.3, seed=9)
        for epoch in range(10):
            assert a.failed_nodes(epoch) == b.failed_nodes(epoch)

    def test_is_failed_uses_epoch(self, topo):
        schedule = NodeFailureSchedule(topo, 0.5, seed=4)
        failed = schedule.failed_nodes(2)
        for node in failed:
            assert schedule.is_failed(node, 2.5)

    def test_node_and_link_schedules_are_independent(self, topo):
        links = FailureSchedule(topo, 0.5, seed=6)
        nodes = NodeFailureSchedule(topo, 0.5, seed=6)
        # Different spawn keys: the two draws must not be identical signals.
        link_pattern = [len(links.failed_edges(e)) for e in range(20)]
        node_pattern = [len(nodes.failed_nodes(e)) for e in range(20)]
        assert link_pattern != node_pattern
