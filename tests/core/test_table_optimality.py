"""Theorem 1 end-to-end: the solver's sending lists are brute-force optimal.

The unit tests check the ordering rule in isolation; here we verify that
the *full pipeline* (Eq. 1 link transforms → Eq. 2 via-values → Theorem 1
sort inside :func:`compute_dr_table`) produces, at every broker, an order
whose Eq. 3 expected delay matches the exhaustive-search optimum over all
permutations of that broker's eligible neighbours.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.computation import compute_dr_table
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import random_regular
from tests.core.theory import brute_force_best_order, expected_delay_of_order


def heterogeneous_estimates(topology, rng):
    """Per-link gammas drawn independently, alphas from the topology."""
    return {
        edge: LinkEstimate(
            alpha=topology.delay(*edge), gamma=float(rng.uniform(0.5, 1.0))
        )
        for edge in topology.edges()
    }


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_sending_list_is_brute_force_optimal(seed):
    rng = np.random.default_rng(seed)
    topology = random_regular(8, 3, rng)
    estimates = heterogeneous_estimates(topology, rng)
    table = compute_dr_table(
        topology, estimates, publisher=0, subscriber=7, deadline=1.0, m=1
    )
    for node in topology.nodes:
        if node == 7:
            continue
        vias = table.state(node).sending_list
        if len(vias) < 2:
            continue
        d_via = [v.d_via for v in vias]
        r_via = [v.r_via for v in vias]
        produced = expected_delay_of_order(d_via, r_via, range(len(vias)))
        _, optimal = brute_force_best_order(d_via, r_via)
        assert produced == pytest.approx(optimal, rel=1e-9), (
            f"node {node}: produced {produced} vs optimal {optimal}"
        )


def test_aggregate_consistent_with_list(rng):
    topology = random_regular(8, 3, rng)
    estimates = heterogeneous_estimates(topology, rng)
    table = compute_dr_table(
        topology, estimates, publisher=0, subscriber=7, deadline=1.0, m=2
    )
    for node in topology.nodes:
        state = table.state(node)
        if node == 7 or not state.sending_list:
            continue
        d_via = [v.d_via for v in state.sending_list]
        r_via = [v.r_via for v in state.sending_list]
        recomputed = expected_delay_of_order(d_via, r_via, range(len(d_via)))
        # state.d converged to the solver's 1e-9 tolerance against the
        # previous round's neighbour values, so allow the same slack here.
        assert state.d == pytest.approx(recomputed, rel=1e-5)


def test_any_adjacent_swap_never_improves(rng):
    """Eq. 5 directly: swapping adjacent list entries cannot reduce d_X."""
    topology = random_regular(10, 4, rng)
    estimates = heterogeneous_estimates(topology, rng)
    table = compute_dr_table(
        topology, estimates, publisher=0, subscriber=9, deadline=1.0, m=1
    )
    for node in topology.nodes:
        vias = table.state(node).sending_list
        if len(vias) < 2:
            continue
        d_via = [v.d_via for v in vias]
        r_via = [v.r_via for v in vias]
        base = expected_delay_of_order(d_via, r_via, range(len(vias)))
        for k in range(len(vias) - 1):
            order = list(range(len(vias)))
            order[k], order[k + 1] = order[k + 1], order[k]
            swapped = expected_delay_of_order(d_via, r_via, order)
            assert swapped >= base - 1e-12
