"""Mutation smoke: break a hold-back release, the order checks must bite.

Same pattern as :mod:`tests.integration.test_sanitizer_mutations`: a
sanitizer invariant that never fires is indistinguishable from one that
checks nothing. Here two :mod:`tests.mutations` helpers corrupt the
pipeline release stream (``DeliveryPipeline._release``):

* ``missort_order_release`` swaps consecutive ``ready`` releases at every
  pipeline — a classic hold-back drain bug — and each guarantee must
  catch it as *its own* invariant (fifo gap, causal precedence,
  total-order inversion);
* ``drop_order_release`` swallows one mid-stream ``ready`` release at a
  single node — the guarantee-specific checks must notice the hole in
  the stream (fifo/causal), and for ``total`` (where every frame ages in
  the hold-back buffer first) the end-of-run hold/release pairing must
  flag the swallowed delivery as a hold leak.

A third corrupts the *stamp* (``OrderingPlan.stamp``), not the release
stream:

* ``logical_only_stamp`` stamps ``total`` keys from the logical counter
  alone, as the code did before keys followed the publish time;
  ``ORDER_KEY_BEHIND_CLOCK`` must catch the first key that lies in its
  own frame's past, and must stay silent on a clean run.
"""

import pytest

from repro import sanity
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.ordering.spec import LEVELS
from repro.sanity import InvariantViolation
from tests import mutations

CONFIG = ExperimentConfig(
    topology_kind="regular",
    degree=5,
    num_nodes=16,
    num_topics=3,
    failure_probability=0.04,
    loss_rate=0.01,
    m=2,
    duration=6.0,
    drain=4.0,
    sanitize=True,
)

MISSORT_KIND = {
    "fifo": sanity.ORDER_FIFO_GAP,
    "causal": sanity.ORDER_CAUSAL_PRECEDENCE,
    "total": sanity.ORDER_TOTAL_INVERSION,
}

DROP_KIND = {
    "fifo": sanity.ORDER_FIFO_GAP,
    "causal": sanity.ORDER_CAUSAL_PRECEDENCE,
    "total": sanity.ORDER_HOLD_LEAK,
}


@pytest.mark.parametrize("level", LEVELS)
def test_missorted_release_fires_the_matching_invariant(monkeypatch, level):
    mutations.missort_order_release(monkeypatch)
    config = CONFIG.with_updates(ordering=level)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == MISSORT_KIND[level]
    assert MISSORT_KIND[level] in excinfo.value.report()


@pytest.mark.parametrize("level", LEVELS)
def test_dropped_release_fires_the_matching_invariant(monkeypatch, level):
    mutations.drop_order_release(monkeypatch)
    config = CONFIG.with_updates(ordering=level)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == DROP_KIND[level]


def test_logical_only_stamp_fires_the_key_clock_invariant(monkeypatch):
    config = CONFIG.with_updates(ordering="total")
    clean = run_single(config, "DCRD", seed=3)  # silent on a clean run
    assert clean.perf["sanity.violations"] == 0.0
    assert clean.perf["sanity.order_releases"] > 0.0
    mutations.logical_only_stamp(monkeypatch)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.ORDER_KEY_BEHIND_CLOCK
    assert sanity.ORDER_KEY_BEHIND_CLOCK in excinfo.value.report()
