"""Property tests of structural invariants in the routing layers."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.overlay.failures import FailureSchedule
from repro.overlay.topology import full_mesh, line, random_regular, ring, star
from repro.pubsub.topics import generate_workload
from repro.routing.multipath import MultipathStrategy
from repro.routing.oracle import extract_path, time_dependent_paths
from repro.routing.paths import (
    k_shortest_delay_paths,
    path_delay,
    path_links,
    select_diverse_paths,
)
from repro.routing.trees import DTreeStrategy, RTreeStrategy
from tests.conftest import build_ctx, networkx_graph

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_oracle_arrivals_equal_path_traversal_times(seed):
    """Earliest-arrival labels must be reproducible by walking the path."""
    rng = np.random.default_rng(seed)
    topo = random_regular(10, 4, rng)
    failures = FailureSchedule(topo, 0.15, seed=seed)
    start = float(rng.uniform(0.0, 20.0))
    arrival, parent = time_dependent_paths(topo, failures, 0, start)
    for target, label in arrival.items():
        path = extract_path(parent, 0, target)
        assert path is not None
        time = start
        for u, v in zip(path, path[1:]):
            assert not failures.is_failed(u, v, time)  # link usable at departure
            time += topo.delay(u, v)
        assert time == pytest.approx(label)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_oracle_without_failures_matches_dijkstra(seed):
    rng = np.random.default_rng(seed)
    topo = random_regular(12, 4, rng)
    arrival, _ = time_dependent_paths(topo, None, 0, start_time=0.0)
    for target in topo.nodes:
        assert arrival[target] == pytest.approx(topo.shortest_delay(0, target))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=seeds)
def test_tree_tables_route_every_pair_loop_free(seed):
    rng = np.random.default_rng(seed)
    topo = random_regular(12, 4, rng)
    workload = generate_workload(topo, rng, num_topics=4)
    ctx = build_ctx(topo, workload)
    for strategy_cls in (RTreeStrategy, DTreeStrategy):
        strategy = strategy_cls(ctx)
        strategy.setup()
        for spec in workload.topics:
            for sub in spec.subscriptions:
                # Walking the next-hop table must reach the subscriber
                # without revisiting a node.
                node, visited = spec.publisher, set()
                while node != sub.node:
                    assert node not in visited
                    visited.add(node)
                    node = strategy.next_hop(spec.topic, node, sub.node)
                assert len(visited) <= topo.num_nodes


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=seeds)
def test_multipath_paths_are_simple_and_start_end_correctly(seed):
    rng = np.random.default_rng(seed)
    topo = random_regular(12, 4, rng)
    workload = generate_workload(topo, rng, num_topics=3)
    ctx = build_ctx(topo, workload)
    strategy = MultipathStrategy(ctx)
    strategy.setup()
    for spec in workload.topics:
        for sub in spec.subscriptions:
            primary, secondary = strategy.paths_for(spec.topic, sub.node)
            for path in (primary, secondary):
                assert path[0] == spec.publisher
                assert path[-1] == sub.node
                assert len(set(path)) == len(path)  # simple path
                for u, v in zip(path, path[1:]):
                    assert topo.has_edge(u, v)
            # The primary is delay-minimal.
            assert path_delay(topo, primary) == pytest.approx(
                topo.shortest_delay(spec.publisher, sub.node)
            )


OVERLAYS = {
    "regular": lambda rng: random_regular(10, 3, rng),
    "ring": lambda rng: ring(8, rng),
    "line": lambda rng: line(6, rng),
    "star": lambda rng: star(6, rng),
}


def paper_secondary_path(candidates):
    """§IV-B's rule, stated on its own: of the top candidates, the one with
    the fewest links in common with the shortest, earlier winning ties;
    the shortest itself when there is no other."""
    primary = candidates[0]
    best, best_shared = primary, None
    for candidate in candidates[1:]:
        shared = len(path_links(candidate) & path_links(primary))
        if best_shared is None or shared < best_shared:
            best, best_shared = candidate, shared
    return best


@settings(max_examples=20, deadline=None)
@given(seed=seeds, kind=st.sampled_from(sorted(OVERLAYS)))
def test_two_diverse_paths_are_the_papers_multipath_pair(seed, kind):
    rng = np.random.default_rng(seed)
    topo = OVERLAYS[kind](rng)
    publisher = int(rng.integers(topo.num_nodes))
    for subscriber in topo.nodes:
        if subscriber == publisher:
            continue
        candidates = k_shortest_delay_paths(topo, publisher, subscriber, 5)
        assert select_diverse_paths(candidates, 2) == [
            candidates[0],
            paper_secondary_path(candidates),
        ]


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_rtree_paths_are_hop_minimal(seed):
    rng = np.random.default_rng(seed)
    topo = full_mesh(8, rng)
    workload = generate_workload(topo, rng, num_topics=3)
    ctx = build_ctx(topo, workload)
    strategy = RTreeStrategy(ctx)
    strategy.setup()
    graph = networkx_graph(topo)
    for spec in workload.topics:
        for sub in spec.subscriptions:
            hops = 0
            node = spec.publisher
            while node != sub.node:
                node = strategy.next_hop(spec.topic, node, sub.node)
                hops += 1
            assert hops == nx.shortest_path_length(graph, spec.publisher, sub.node)
