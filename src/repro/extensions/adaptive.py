"""Adaptive ACK timeouts: a Jacobson/Karn estimator for the hop-by-hop RTO.

This extension was written against a congestion collapse that turned out to
be a one-line arming bug, not a property of static timers: the ARQ clock
used to start when a copy was *handed to* its link, so on finite-capacity
links the paper's ``factor * alpha`` timer ran while the copy still sat in
its sender's own output queue, and every copy was declared lost. The clock
now starts when the copy's last bit leaves the sender
(:mod:`repro.routing.arq`), for every policy, and on the congestion study
(:mod:`repro.extensions.congestion`) ``DCRD+adaptive`` is indistinguishable
from static DCRD: its Karn samples start at the wire too, so they measure
the bare propagation round trip, and the estimator settles on the static
floor (loss-free sweep, 1–33 msg/s: identical QoS and packets per
subscriber to four digits; with ``Pf`` 0.06 at 8 msg/s: 0.867 vs 0.870
QoS, 1.70 vs 1.69 packets per subscriber — the conservative bootstrap
costs the first failover on each link a little time).

What is left of its case is what a sender cannot read off its own queue: a
round trip longer than ``factor * alpha`` for reasons *outside* it — an
``alpha`` estimate that is stale or too low (the floor is the static
timer, so the estimator can only lengthen it), or, on a real deployment,
receiver processing and a queued ACK path, neither of which the simulator
models (ACKs skip the queues). It stays as the repository's example of a
pluggable :class:`~repro.routing.arq.TimeoutPolicy`.

:class:`AdaptiveTimeoutPolicy` implements TCP's retransmission-timeout
estimator (Jacobson/Karn) per link direction:

* before any sample exists, the RTO is a deliberately *conservative*
  ``initial_rto`` (RFC 6298 starts TCP at 1 s for the same reason): if the
  very first timer undercuts the true no-load RTT, every first attempt
  "fails" before its ACK lands and — with Karn filtering — the estimator
  can never learn;
* ``srtt`` and ``rttvar`` are EWMAs of observed ACK round trips
  (first-attempt samples only — Karn's rule — fed by the ARQ layer),
  advanced by :func:`repro.util.rtt.jacobson_update`, the estimator the
  total-order pipeline sizes its agreement window with;
* timeout = ``srtt + 4 * rttvar`` (+slack), clamped to
  ``[floor, ceiling]`` where the floor is the static paper timer (never be
  *more* aggressive than the baseline) and the ceiling bounds how long a
  truly dead neighbour can stall failure detection.

:class:`AdaptiveDcrdStrategy` is DCRD with this policy plugged into its
ARQ layer; everything else — sending lists, bouncing, Theorem 1 — is
untouched.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.forwarding import DcrdStrategy
from repro.routing.arq import ArqSender
from repro.routing.base import RuntimeContext
from repro.util.rtt import RttEstimate, jacobson_update
from repro.util.validation import require, require_positive


class AdaptiveTimeoutPolicy:
    """Per-link Jacobson/Karn retransmission-timeout estimation."""

    def __init__(
        self,
        ctx: RuntimeContext,
        alpha: float = 0.125,
        beta: float = 0.25,
        var_factor: float = 4.0,
        initial_rto: float = 0.5,
        ceiling: float = 5.0,
    ) -> None:
        require(0.0 < alpha < 1.0, "alpha must be in (0, 1)")
        require(0.0 < beta < 1.0, "beta must be in (0, 1)")
        require_positive(var_factor, "var_factor")
        require_positive(initial_rto, "initial_rto")
        require_positive(ceiling, "ceiling")
        require(ceiling >= initial_rto, "ceiling must cover initial_rto")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.var_factor = var_factor
        self.initial_rto = initial_rto
        self.ceiling = ceiling
        self._state: Dict[Tuple[int, int], RttEstimate] = {}
        self.samples = 0

    def _floor(self, src: int, dst: int) -> float:
        """Never undercut the paper's static timer."""
        link_alpha = self.ctx.monitor.estimate(src, dst).alpha
        return self.ctx.params.ack_timeout(link_alpha)

    def timeout(self, src: int, dst: int) -> float:
        """Current RTO for the (src, dst) direction."""
        floor = self._floor(src, dst)
        state = self._state.get((src, dst))
        if state is None:
            # Conservative bootstrap until the first unambiguous sample.
            return min(max(floor, self.initial_rto), self.ceiling)
        rto = state.bound(self.var_factor)
        rto += self.ctx.params.ack_timeout_slack
        return min(max(rto, floor), self.ceiling)

    def on_sample(self, src: int, dst: int, rtt: float) -> None:
        """Fold one unambiguous RTT observation into the estimator."""
        self.samples += 1
        link = (src, dst)
        self._state[link] = jacobson_update(
            self._state.get(link), rtt, self.alpha, self.beta
        )


class AdaptiveDcrdStrategy(DcrdStrategy):
    """DCRD with RTT-tracking (Jacobson/Karn) ACK timeouts."""

    name = "DCRD+adaptive"

    def __init__(self, ctx: RuntimeContext, rto_ceiling: float = 5.0) -> None:
        super().__init__(ctx)
        self.rto_policy = AdaptiveTimeoutPolicy(ctx, ceiling=rto_ceiling)
        self.arq = ArqSender(ctx, timeout_policy=self.rto_policy)
