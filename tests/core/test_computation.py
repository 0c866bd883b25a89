"""Unit tests for the <d, r> recursion (Eq. 2/3) and its fixed point."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.core.computation import (
    ControlPlaneSolver,
    ViaNeighbor,
    aggregate_dr,
    compute_dr_table,
    sweep_blocks,
)
from repro.core.linkmath import expected_delay_m, expected_delivery_ratio_m
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import full_mesh, random_regular
from repro.pubsub.topics import generate_workload
from tests.conftest import build_ctx, make_topology
from tests.core.theory import expected_delay_of_order


def uniform_estimates(topology, gamma=1.0):
    return {
        edge: LinkEstimate(alpha=topology.delay(*edge), gamma=gamma)
        for edge in topology.edges()
    }


class TestAggregate:
    def test_empty_list_is_unreachable(self):
        d, r = aggregate_dr([])
        assert math.isinf(d) and r == 0.0

    def test_single_neighbor_passthrough(self):
        d, r = aggregate_dr([ViaNeighbor(1, 0.3, 0.8)])
        assert d == pytest.approx(0.3)
        assert r == pytest.approx(0.8)

    def test_matches_reference_evaluator(self):
        vias = [ViaNeighbor(1, 1.0, 0.5), ViaNeighbor(2, 2.0, 0.4), ViaNeighbor(3, 0.5, 0.9)]
        d, r = aggregate_dr(vias)
        reference = expected_delay_of_order(
            [v.d_via for v in vias], [v.r_via for v in vias], [0, 1, 2]
        )
        assert d == pytest.approx(reference)

    @given(
        vias=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=2.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=0,
            max_size=6,
        )
    )
    @settings(deadline=None)
    def test_r_equals_one_minus_product(self, vias):
        entries = [ViaNeighbor(i, d, r) for i, (d, r) in enumerate(vias)]
        _, r = aggregate_dr(entries)
        survive = 1.0
        for _, r_i in vias:
            survive *= 1.0 - r_i
        assert r == pytest.approx(1.0 - survive)


class TestTwoNodeChain:
    def test_direct_neighbor_of_subscriber(self):
        topo = make_topology([(0, 1, 0.020)])
        estimates = uniform_estimates(topo, gamma=0.9)
        table = compute_dr_table(topo, estimates, publisher=0, subscriber=1, deadline=1.0)
        state = table.state(0)
        assert state.d == pytest.approx(expected_delay_m(0.020, 0.9, 1))
        assert state.r == pytest.approx(expected_delivery_ratio_m(0.9, 1))
        assert table.sending_list(0) == (1,)

    def test_subscriber_state_pinned(self):
        topo = make_topology([(0, 1, 0.020)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=1, deadline=1.0
        )
        assert table.state(1).d == 0.0
        assert table.state(1).r == 1.0
        assert table.sending_list(1) == ()

    def test_m_two_improves_delivery_ratio(self):
        topo = make_topology([(0, 1, 0.020)])
        estimates = uniform_estimates(topo, gamma=0.5)
        table1 = compute_dr_table(topo, estimates, 0, 1, deadline=1.0, m=1)
        table2 = compute_dr_table(topo, estimates, 0, 1, deadline=1.0, m=2)
        assert table2.state(0).r > table1.state(0).r


class TestLineChain:
    def test_delays_accumulate_along_chain(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020), (2, 3, 0.030)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=3, deadline=1.0
        )
        assert table.state(0).d == pytest.approx(0.060)
        assert table.state(1).d == pytest.approx(0.050)
        assert table.state(2).d == pytest.approx(0.030)
        assert table.state(0).r == pytest.approx(1.0)

    def test_budgets_shrink_with_distance(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=0.1
        )
        assert table.budget(0) == pytest.approx(0.1)
        assert table.budget(1) == pytest.approx(0.09)
        assert table.budget(2) == pytest.approx(0.07)


class TestBudgetFilter:
    def test_too_slow_neighbor_excluded(self):
        # Node 1 hangs off node 0; its only route to subscriber 2 goes back
        # through 0, so d_1 = 0.020. With budget 0.015 at node 0, neighbour
        # 1 fails the d_i < D_XS filter and only the direct link remains.
        topo = make_topology([(0, 2, 0.010), (0, 1, 0.010)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=0.015
        )
        assert table.sending_list(0) == (2,)

    def test_loopback_route_admitted_when_budget_allows(self):
        # The paper permits neighbours whose own route loops back through
        # the sender; runtime loop-avoidance (the routing path) handles it.
        topo = make_topology([(0, 2, 0.010), (0, 1, 0.010)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=1.0
        )
        assert set(table.sending_list(0)) == {1, 2}

    def test_loose_deadline_admits_detour(self):
        topo = make_topology([(0, 2, 0.010), (0, 1, 0.010), (1, 2, 0.100)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=1.0
        )
        assert set(table.sending_list(0)) == {1, 2}

    def test_impossible_deadline_leaves_node_unreachable(self):
        # Chain 0-1-2: node 1 expects d_1 = 0.020 to subscriber 2. With a
        # 15 ms end-to-end deadline, d_1 >= D_0S so node 0 has no eligible
        # neighbour at all.
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=0.015
        )
        assert not table.reachable(0)

    def test_per_hop_filter_is_heuristic_not_guarantee(self):
        # The paper's d_i < D_XS rule filters per hop; the aggregated d_X at
        # the publisher may still exceed the deadline (chain needs 30 ms,
        # deadline is 25 ms, yet node 1's d=20 ms passes node 0's filter).
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=2, deadline=0.025
        )
        assert table.reachable(0)
        assert table.state(0).d > table.deadline


class TestOrderingInTable:
    def test_list_sorted_by_theorem1_ratio(self):
        # Two routes from 0 to subscriber 3: via 1 (fast) and via 2 (slow).
        topo = make_topology(
            [(0, 1, 0.010), (1, 3, 0.010), (0, 2, 0.040), (2, 3, 0.040)]
        )
        table = compute_dr_table(
            topo, uniform_estimates(topo, gamma=0.9), publisher=0, subscriber=3,
            deadline=1.0,
        )
        assert table.sending_list(0)[0] == 1

    def test_direct_subscriber_link_ranks_first_on_equal_gamma(self):
        topo = make_topology([(0, 1, 0.030), (0, 2, 0.010), (2, 1, 0.010)])
        table = compute_dr_table(
            topo, uniform_estimates(topo, gamma=0.95), publisher=0, subscriber=1,
            deadline=1.0,
        )
        # Via node 2: d = 0.02, via direct: d = 0.03 -> node 2 first.
        assert table.sending_list(0)[0] == 2


class TestConvergence:
    def test_converges_on_cyclic_topology(self):
        topo = make_topology(
            [(0, 1, 0.010), (1, 2, 0.010), (2, 3, 0.010), (3, 0, 0.010)]
        )
        table = compute_dr_table(
            topo, uniform_estimates(topo, gamma=0.8), publisher=0, subscriber=2,
            deadline=1.0,
        )
        assert table.rounds < 64  # solve() raises on a table that does not converge
        assert 0.0 < table.state(0).r <= 1.0
        assert math.isfinite(table.state(0).d)

    def test_perfect_links_give_unit_delivery_everywhere(self):
        topo = make_topology(
            [(0, 1, 0.010), (1, 2, 0.010), (0, 2, 0.030), (2, 3, 0.010)]
        )
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=3, deadline=10.0
        )
        for node in topo.nodes:
            assert table.state(node).r == pytest.approx(1.0)

    def test_rounds_recorded(self):
        topo = make_topology([(0, 1, 0.010)])
        table = compute_dr_table(
            topo, uniform_estimates(topo), publisher=0, subscriber=1, deadline=1.0
        )
        assert table.rounds >= 1

    def test_sparse_graphs_take_more_rounds(self, rng):
        mesh = full_mesh(12, rng)
        sparse = random_regular(12, 3, rng)

        def mean_rounds(topology, workload):
            estimates = build_ctx(topology, workload).monitor.estimates()
            tables = ControlPlaneSolver(topology, estimates).solve(
                [
                    (spec.publisher, sub.node, sub.deadline)
                    for spec in workload.topics
                    for sub in spec.subscriptions
                ]
            )
            return np.mean([table.rounds for table in tables])

        mesh_workload = generate_workload(mesh, rng, num_topics=4)
        sparse_workload = generate_workload(sparse, rng, num_topics=4)
        # One block each, so a round is a lock-step propagation round, and
        # longer diameters need more of them.
        assert len(sweep_blocks(mesh)) == len(sweep_blocks(sparse)) == 1
        assert mean_rounds(sparse, sparse_workload) >= mean_rounds(mesh, mesh_workload)

    def test_invalid_m_rejected(self):
        topo = make_topology([(0, 1, 0.010)])
        with pytest.raises(Exception):
            compute_dr_table(
                topo, uniform_estimates(topo), 0, 1, deadline=1.0, m=0
            )

    def test_invalid_deadline_rejected(self):
        topo = make_topology([(0, 1, 0.010)])
        with pytest.raises(Exception):
            compute_dr_table(topo, uniform_estimates(topo), 0, 1, deadline=0.0)
