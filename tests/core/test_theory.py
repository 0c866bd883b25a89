"""Tests of the independent Eq. 3 evaluator and the brute-force oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.core.theory import (
    brute_force_best_order,
    delivery_ratio_of_order,
    expected_delay_of_order,
    theorem1_order,
)


def test_single_neighbor_delay_is_its_own():
    assert expected_delay_of_order([0.5], [0.8], [0]) == pytest.approx(0.5)


def test_two_neighbor_hand_computation():
    # Try neighbour 0 (d=1, r=0.5) then neighbour 1 (d=2, r=0.5):
    # numerator = 1*0.5 + (1+2)*0.5*0.5 = 1.25; r = 0.75.
    value = expected_delay_of_order([1.0, 2.0], [0.5, 0.5], [0, 1])
    assert value == pytest.approx(1.25 / 0.75)


def test_order_affects_delay():
    fast_first = expected_delay_of_order([1.0, 10.0], [0.9, 0.9], [0, 1])
    slow_first = expected_delay_of_order([1.0, 10.0], [0.9, 0.9], [1, 0])
    assert fast_first < slow_first


def test_all_zero_ratios_is_infinite():
    assert math.isinf(expected_delay_of_order([1.0, 2.0], [0.0, 0.0], [0, 1]))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        expected_delay_of_order([1.0], [0.5, 0.5], [0])


def test_delivery_ratio_closed_form():
    assert delivery_ratio_of_order([0.5, 0.5]) == pytest.approx(0.75)


@given(
    r=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_delivery_ratio_independent_of_order(r):
    forward = delivery_ratio_of_order(r)
    backward = delivery_ratio_of_order(list(reversed(r)))
    assert forward == pytest.approx(backward)


def test_brute_force_small_case():
    d = [1.0, 10.0]
    r = [0.9, 0.9]
    order, delay = brute_force_best_order(d, r)
    assert order == [0, 1]
    assert delay == pytest.approx(expected_delay_of_order(d, r, [0, 1]))


def test_theorem1_order_sorts_by_ratio():
    # ratios: 2.0, 0.5, 1.0 -> order [1, 2, 0]
    assert theorem1_order([1.0, 0.25, 0.5], [0.5, 0.5, 0.5]) == [1, 2, 0]


def test_theorem1_order_pushes_zero_ratio_last():
    assert theorem1_order([1.0, 1.0], [0.0, 0.5]) == [1, 0]


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=5.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_theorem1_matches_brute_force(data):
    """The paper's Theorem 1: sorting by d/r minimises expected delay."""
    d = [item[0] for item in data]
    r = [item[1] for item in data]
    _, best_delay = brute_force_best_order(d, r)
    theorem_delay = expected_delay_of_order(d, r, theorem1_order(d, r))
    assert theorem_delay == pytest.approx(best_delay, rel=1e-9, abs=1e-12)
