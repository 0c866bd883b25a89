"""Unit tests for the Jacobson/Karn delay estimator (``repro.util.rtt``).

The total-order pipeline sizes its agreement window with this estimator,
and the measured window's floats depend on the exact arithmetic order, so
these cases pin it bit for bit rather than approximately.
"""

from hypothesis import given, strategies as st

from repro.util.rtt import (
    RFC6298_ALPHA,
    RFC6298_BETA,
    RFC6298_K,
    RttEstimate,
    jacobson_update,
)

delays = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def test_rfc6298_constants():
    assert (RFC6298_ALPHA, RFC6298_BETA, RFC6298_K) == (0.125, 0.25, 4.0)


@given(sample=delays)
def test_first_sample_seeds_srtt_and_half_of_it_as_rttvar(sample):
    state = jacobson_update(None, sample)
    assert state.srtt == sample
    assert state.rttvar == sample / 2.0


def test_rttvar_moves_first_and_uses_the_old_srtt():
    state = jacobson_update(None, 0.1)  # srtt 0.1, rttvar 0.05
    jacobson_update(state, 0.3)
    # RFC 6298: the deviation is |old srtt - sample| = 0.2 ...
    assert state.rttvar == 0.75 * 0.05 + 0.25 * abs(0.1 - 0.3)
    assert state.srtt == 0.875 * 0.1 + 0.125 * 0.3
    # ... not |new srtt - sample| = 0.175, which a srtt-first update gives.
    assert state.rttvar != 0.75 * 0.05 + 0.25 * abs(state.srtt - 0.3)


@given(srtt=delays, rttvar=delays, sample=delays)
def test_update_is_rfc6298_bit_for_bit(srtt, rttvar, sample):
    state = RttEstimate(srtt, rttvar)
    assert jacobson_update(state, sample) is state  # advanced in place
    assert state.rttvar == (1.0 - 0.25) * rttvar + 0.25 * abs(srtt - sample)
    assert state.srtt == (1.0 - 0.125) * srtt + 0.125 * sample


@given(srtt=delays, rttvar=delays)
def test_bound_is_srtt_plus_four_rttvar(srtt, rttvar):
    assert RttEstimate(srtt, rttvar).bound() == srtt + 4.0 * rttvar
