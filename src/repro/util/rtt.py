"""The Jacobson/Karn delay estimator (RFC 6298), in one place.

The total-order hold-back pipeline (:mod:`repro.ordering.pipeline`, one
estimate per subscriber, fed publish-to-arrival transits) bounds a delay
by what it has measured instead of by a typed constant: it keeps a
smoothed mean ``srtt`` and a smoothed mean deviation ``rttvar`` and bounds
the next observation by ``srtt + 4 * rttvar``; :func:`jacobson_update` is
the only code that advances the pair.

Which observations are unambiguous enough to feed in (Karn's rule) is the
caller's business: the pipeline samples a message's first offer at a node
only.
"""

from __future__ import annotations

from typing import Optional

#: RFC 6298 gains for the smoothed mean and the smoothed deviation.
RFC6298_ALPHA = 0.125
RFC6298_BETA = 0.25
#: RFC 6298's ``K``: deviations of headroom above the smoothed mean.
RFC6298_K = 4.0


class RttEstimate:
    """Smoothed mean and mean deviation of one observed delay."""

    __slots__ = ("srtt", "rttvar")

    def __init__(self, srtt: float, rttvar: float) -> None:
        self.srtt = srtt
        self.rttvar = rttvar

    def bound(self) -> float:
        """``srtt + K * rttvar``: the delay the next observation should stay under."""
        return self.srtt + RFC6298_K * self.rttvar


def jacobson_update(state: Optional[RttEstimate], sample: float) -> RttEstimate:
    """Fold one *sample* into *state* (``None`` before the first) and return it.

    The first sample seeds ``srtt = sample`` and ``rttvar = sample / 2``.
    After that the deviation is taken from the *old* ``srtt`` and
    ``rttvar`` moves before ``srtt`` does — RFC 6298's order, which the
    measured ordering window depends on bit for bit.
    """
    if state is None:
        return RttEstimate(sample, sample / 2.0)
    deviation = abs(state.srtt - sample)
    state.rttvar = (1.0 - RFC6298_BETA) * state.rttvar + RFC6298_BETA * deviation
    state.srtt = (1.0 - RFC6298_ALPHA) * state.srtt + RFC6298_ALPHA * sample
    return state
