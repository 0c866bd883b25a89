"""Mutation smoke: break a hold-back release, the order checks must bite.

Same pattern as :mod:`tests.integration.test_sanitizer_mutations`: a
sanitizer invariant that never fires is indistinguishable from one that
checks nothing. Here the two ordering mutations corrupt the pipeline
release stream in sanitized runs:

* ``MUTATE_MISSORT_ORDER_RELEASE`` swaps consecutive ``ready`` releases
  at every pipeline — a classic hold-back drain bug — and each guarantee
  must catch it as *its own* invariant (fifo gap, causal precedence,
  total-order inversion);
* ``MUTATE_DROP_ORDER_RELEASE`` swallows one mid-stream ``ready``
  release at a single node — the guarantee-specific checks must notice
  the hole in the stream (fifo/causal), and for ``total`` (where every
  frame ages in the hold-back buffer first) the end-of-run hold/release
  pairing must flag the swallowed delivery as a hold leak.

A third mutation corrupts the *stamp*, not the release stream:

* ``MUTATE_LOGICAL_ONLY_STAMP`` stamps ``total`` keys from the logical
  counter alone, as the code did before keys followed the publish time;
  ``ORDER_KEY_BEHIND_CLOCK`` must catch the first key that lies in its
  own frame's past, and must stay silent on a clean run.

With the sanitizer *off*, every flag must be completely inert: they
resolve through sanitizer-gated helpers in :mod:`repro.sanity`, so
plain runs stay bit-identical no matter what a test left behind.
"""

import pytest

from repro import sanity
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.ordering.spec import LEVELS
from repro.sanity import InvariantViolation

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
    monkeypatch.setattr(sanity, "MUTATE_MISSORT_ORDER_RELEASE", True)
    config = CONFIG.with_updates(ordering=level)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == MISSORT_KIND[level]
    assert MISSORT_KIND[level] in excinfo.value.report()


@pytest.mark.parametrize("level", LEVELS)
def test_dropped_release_fires_the_matching_invariant(monkeypatch, level):
    monkeypatch.setattr(sanity, "MUTATE_DROP_ORDER_RELEASE", True)
    config = CONFIG.with_updates(ordering=level)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == DROP_KIND[level]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize(
    "flag", ["MUTATE_MISSORT_ORDER_RELEASE", "MUTATE_DROP_ORDER_RELEASE"]
)
def test_mutations_inert_without_sanitizer(monkeypatch, level, flag):
    """Unsanitized ordered runs are bit-identical with the flags up."""
    plain = CONFIG.with_updates(sanitize=False, ordering=level)
    baseline = run_single(plain, "DCRD", seed=3).as_dict()
    monkeypatch.setattr(sanity, flag, True)
    mutated = run_single(plain, "DCRD", seed=3).as_dict()
    assert mutated == baseline


def test_logical_only_stamp_fires_the_key_clock_invariant(monkeypatch):
    config = CONFIG.with_updates(ordering="total")
    clean = run_single(config, "DCRD", seed=3)  # silent on a clean run
    assert clean.perf["sanity.violations"] == 0.0
    assert clean.perf["sanity.order_releases"] > 0.0
    monkeypatch.setattr(sanity, "MUTATE_LOGICAL_ONLY_STAMP", True)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.ORDER_KEY_BEHIND_CLOCK
    assert sanity.ORDER_KEY_BEHIND_CLOCK in excinfo.value.report()


def test_logical_only_stamp_inert_without_sanitizer(monkeypatch):
    plain = CONFIG.with_updates(sanitize=False, ordering="total")
    baseline = run_single(plain, "DCRD", seed=3).as_dict()
    monkeypatch.setattr(sanity, "MUTATE_LOGICAL_ONLY_STAMP", True)
    assert run_single(plain, "DCRD", seed=3).as_dict() == baseline
