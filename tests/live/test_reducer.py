"""The run reducer behind ``harvest`` and a partition's report."""

from repro.core.forwarding import DcrdStrategy
from repro.live.scenarios import AcceptLedger, reduce_run
from tests.conftest import build_ctx, make_topology, single_topic_workload


def test_a_pair_delivered_after_a_give_up_is_not_given_up():
    # DCRD can abandon a pair on one branch and deliver it on another:
    # the pair is delivered, as merge_reports already counts it.
    topo = make_topology([(0, 1, 0.010)])
    ctx = build_ctx(topo, single_topic_workload(0, [(1, 1.0)]))
    strategy = DcrdStrategy(ctx)
    ctx.metrics.expect(1, 0, 0.0, {1: 1.0})
    ctx.metrics.record_give_up(1, 1)
    ctx.metrics.record_delivery(1, 1, 0.02)
    facts = reduce_run(ctx, strategy, AcceptLedger(), None, topo.nodes)
    assert facts["delivered"] == ((1, 1),)
    assert facts["gave_up"] == ()
