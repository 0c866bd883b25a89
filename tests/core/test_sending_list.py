"""Unit and property tests for sending-list construction."""

import pytest
from hypothesis import given, strategies as st

from repro.core.sending_list import (
    eligible_neighbors,
    order_sending_list,
    theorem1_key,
)
from tests.core.theory import expected_delay_of_order, theorem1_order


class TestEligibility:
    def test_strictly_less_than_budget(self):
        pairs = [(1, 0.5), (2, 1.0), (3, 1.5)]
        assert eligible_neighbors(pairs, delay_budget=1.0) == [1]

    def test_infinite_delay_never_eligible(self):
        pairs = [(1, float("inf"))]
        assert eligible_neighbors(pairs, delay_budget=float("inf")) == []

    def test_negative_budget_excludes_all(self):
        pairs = [(1, 0.1), (2, 0.2)]
        assert eligible_neighbors(pairs, delay_budget=-0.5) == []

    def test_preserves_input_order(self):
        pairs = [(9, 0.1), (2, 0.2), (5, 0.3)]
        assert eligible_neighbors(pairs, delay_budget=1.0) == [9, 2, 5]


class TestTheorem1Key:
    def test_plain_ratio(self):
        assert theorem1_key(2.0, 0.5) == pytest.approx(4.0)

    def test_zero_ratio_is_infinite(self):
        assert theorem1_key(1.0, 0.0) == float("inf")


class TestOrdering:
    def test_sorts_ascending_by_ratio(self):
        candidates = [(1, 4.0, 0.5), (2, 1.0, 0.5), (3, 2.0, 0.5)]
        ordered = order_sending_list(candidates)
        assert [c[0] for c in ordered] == [2, 3, 1]

    def test_ties_break_by_neighbor_id(self):
        candidates = [(5, 1.0, 0.5), (2, 1.0, 0.5)]
        ordered = order_sending_list(candidates)
        assert [c[0] for c in ordered] == [2, 5]

    def test_hopeless_neighbors_sink_to_end(self):
        candidates = [(1, 1.0, 0.0), (2, 5.0, 0.5)]
        ordered = order_sending_list(candidates)
        assert [c[0] for c in ordered] == [2, 1]

    def test_empty_input(self):
        assert order_sending_list([]) == []

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_order_matches_reference_theorem1(self, data):
        candidates = [(i, d, r) for i, (d, r) in enumerate(data)]
        ordered = [c[0] for c in order_sending_list(candidates)]
        d = [item[0] for item in data]
        r = [item[1] for item in data]
        reference = theorem1_order(d, r)
        produced = expected_delay_of_order(d, r, ordered)
        optimal = expected_delay_of_order(d, r, reference)
        # Orders may differ on exact ties, but the achieved delay must match.
        assert produced == pytest.approx(optimal, rel=1e-9)
