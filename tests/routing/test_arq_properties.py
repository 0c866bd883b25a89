"""Property tests for the ARQ sender's per-direction timeout memo.

:class:`~repro.routing.arq.ArqSender` sits on the data-plane hot path and
memoises each direction's static ACK timeout (``ArqSender._dir_info``)
until the link monitor publishes a new estimate (``monitor.version``). The
memo is only correct if it is *transparent*: under any interleaving of
sends and monitor refreshes, the timer a copy is armed with must equal the
unmemoised computation ``params.ack_timeout(monitor.estimate(src,
dst).alpha)`` — and the memo must actually memoise (one estimate lookup
per direction per version). The properties drive real ``ArqSender.send``
calls over the production ``send_data`` path; the clock stays at 0, so an
armed deadline *is* the timeout, bit for bit.
"""

import itertools
from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.pubsub.messages import PacketFrame
from repro.routing.arq import ArqSender
from repro.routing.base import ProtocolParams
from tests.conftest import build_ctx, make_topology

_transfer_ids = itertools.count(1)

MESH = make_topology([(u, v, 0.010) for u in range(6) for v in range(u + 1, 6)])


class StubMonitor:
    """A monitor double: per-direction alphas plus an explicit version."""

    def __init__(self, alphas):
        self.alphas = dict(alphas)
        self.version = 0
        self.estimate_calls = 0

    def estimate(self, src, dst):
        self.estimate_calls += 1
        return SimpleNamespace(alpha=self.alphas[(src, dst)])

    def refresh(self, alphas):
        self.alphas = dict(alphas)
        self.version += 1


links = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
).filter(lambda pair: pair[0] != pair[1])

alpha_maps = st.dictionaries(
    links,
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
)

params_strategy = st.builds(
    ProtocolParams,
    m=st.integers(min_value=1, max_value=3),
    ack_timeout_factor=st.floats(min_value=0.1, max_value=10.0),
    ack_timeout_slack=st.floats(min_value=0.0, max_value=0.1),
)


def _arq(monitor, params):
    ctx = build_ctx(MESH)
    ctx.monitor = monitor
    ctx.params = params
    return ArqSender(ctx)


def _ignore(frame, hop):
    pass


def _armed_timeout(arq, src, dst):
    """Send one copy ``src -> dst`` at t=0; the deadline its timer is armed for."""
    frame = PacketFrame.fresh(
        msg_id=1,
        transfer_id=next(_transfer_ids),
        topic=0,
        origin=src,
        publish_time=0.0,
        destinations=frozenset({dst}),
    )
    arq.send(src, dst, frame, _ignore)
    return arq._outstanding[frame.transfer_id].event.time


@given(alphas=alpha_maps, params=params_strategy)
def test_memoised_answer_equals_direct_computation(alphas, params):
    arq = _arq(StubMonitor(alphas), params)
    for (src, dst), alpha in alphas.items():
        expected = params.ack_timeout(alpha)
        # First copy computes, second must be armed from the identical memo.
        assert _armed_timeout(arq, src, dst) == expected
        assert _armed_timeout(arq, src, dst) == expected
        assert arq._dir_info[(src << 21) | dst][0] == expected


@given(alphas=alpha_maps, params=params_strategy, repeats=st.integers(2, 5))
def test_cache_hits_do_not_requery_the_monitor(alphas, params, repeats):
    monitor = StubMonitor(alphas)
    arq = _arq(monitor, params)
    for _ in range(repeats):
        for src, dst in alphas:
            _armed_timeout(arq, src, dst)
    # Exactly one estimate() per direction, however many copies.
    assert monitor.estimate_calls == len(alphas)


@given(
    first=alpha_maps,
    second=alpha_maps,
    params=params_strategy,
)
def test_version_bump_invalidates_the_cache(first, second, params):
    # Both alpha maps must cover the same directions for the comparison.
    directions = set(first)
    second = {key: second.get(key, 0.5) for key in directions}
    monitor = StubMonitor(first)
    arq = _arq(monitor, params)
    for src, dst in directions:
        assert _armed_timeout(arq, src, dst) == params.ack_timeout(first[(src, dst)])
    monitor.refresh(second)
    for src, dst in directions:
        assert _armed_timeout(arq, src, dst) == params.ack_timeout(second[(src, dst)])
    assert monitor.estimate_calls == 2 * len(directions)


@given(alphas=alpha_maps, params=params_strategy)
def test_refresh_without_change_keeps_answers_stable(alphas, params):
    monitor = StubMonitor(alphas)
    arq = _arq(monitor, params)
    before = {key: _armed_timeout(arq, *key) for key in alphas}
    monitor.refresh(alphas)  # same values, new version: memo must rebuild
    after = {key: _armed_timeout(arq, *key) for key in alphas}
    assert before == after
