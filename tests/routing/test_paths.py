"""Unit tests for path utilities."""

import pytest

from repro.routing.paths import (
    build_path_tree,
    k_shortest_delay_paths,
    path_delay,
    path_links,
    select_diverse_paths,
    shared_links,
)
from repro.util.errors import RoutingError
from tests.conftest import make_topology


@pytest.fixture
def diamond():
    # 0 -> 3 via 1 (fast) or via 2 (slow), plus a long direct link.
    return make_topology(
        [
            (0, 1, 0.010),
            (1, 3, 0.010),
            (0, 2, 0.020),
            (2, 3, 0.020),
            (0, 3, 0.060),
        ]
    )


def test_path_delay_sums_links(diamond):
    assert path_delay(diamond, [0, 1, 3]) == pytest.approx(0.020)
    assert path_delay(diamond, [0, 2, 3]) == pytest.approx(0.040)


def test_path_links_canonical(diamond):
    assert path_links([3, 1, 0]) == {(1, 3), (0, 1)}


def test_shared_links_counts_overlap(diamond):
    assert shared_links([0, 1, 3], [0, 1, 3]) == 2
    assert shared_links([0, 1, 3], [0, 2, 3]) == 0


def test_k_shortest_sorted_by_delay(diamond):
    paths = k_shortest_delay_paths(diamond, 0, 3, k=3)
    delays = [path_delay(diamond, p) for p in paths]
    assert delays == sorted(delays)
    assert paths[0] == [0, 1, 3]


def test_k_shortest_returns_at_most_k(diamond):
    assert len(k_shortest_delay_paths(diamond, 0, 3, k=2)) == 2


def test_k_shortest_handles_fewer_paths_than_k():
    topo = make_topology([(0, 1, 0.010)])
    assert k_shortest_delay_paths(topo, 0, 1, k=5) == [[0, 1]]


def test_k_shortest_same_node():
    topo = make_topology([(0, 1, 0.010)])
    assert k_shortest_delay_paths(topo, 0, 0, k=3) == [[0]]


def test_select_diverse_prefers_disjoint(diamond):
    candidates = k_shortest_delay_paths(diamond, 0, 3, k=5)
    primary = candidates[0]
    first, secondary = select_diverse_paths(candidates, 2)
    assert first == primary
    assert shared_links(primary, secondary) == 0
    assert secondary != primary


def test_select_diverse_falls_back_to_primary():
    primary = [0, 1]
    assert select_diverse_paths([primary], 2) == [primary, primary]


def test_select_diverse_requires_candidates():
    with pytest.raises(RoutingError):
        select_diverse_paths([], 2)


def test_select_diverse_tie_breaks_to_earlier_candidate():
    # Both alternatives share zero links with the primary; the earlier
    # (shorter-delay) candidate wins.
    primary = [0, 1, 3]
    candidates = [primary, [0, 2, 3], [0, 3]]
    assert select_diverse_paths(candidates, 2) == [primary, [0, 2, 3]]


def test_build_path_tree_next_hops():
    table = build_path_tree({3: [0, 1, 3], 4: [0, 1, 4]})
    assert table[0] == {3: 1, 4: 1}
    assert table[1] == {3: 3, 4: 4}


def test_build_path_tree_empty():
    assert build_path_tree({}) == {}
