"""Mutation smoke: deliberately break an invariant, the sanitizer must bite.

A sanitizer that never fires is indistinguishable from one that checks
nothing. These tests flip the test-only mutation flags in
:mod:`repro.sanity` — each one injects a specific, realistic bug — and
assert that the run dies with an :class:`InvariantViolation` of exactly
the matching kind:

* ``MUTATE_MISSORT_SENDING_LIST`` hands the data plane a sending list out
  of Theorem-1 (d, r) order → ``sending_list_order`` at table-build time;
* ``MUTATE_SKIP_TIMER_CANCEL`` leaks ACK timers instead of cancelling them
  when the ACK arrives → ``timer_orphan`` in the end-of-drain check;
* ``MUTATE_ARM_AT_ENQUEUE`` starts every ACK clock when the copy is handed
  to its link instead of when its last bit leaves the sender →
  ``timer_before_wire`` on finite-capacity links, at the first timer armed
  short of its copy's serialisation (and nothing at all on
  infinite-capacity links, where the two instants coincide).

With the sanitizer *off*, the flags must be completely inert — the flags
live inside sanitizer-guarded branches, so production runs cannot pay for
(or be bitten by) them.
"""

import pytest

from repro import sanity
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, run_single
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


#: The same world on finite-capacity links, loss-free (every timeout the
#: mutation provokes is spurious). Serialising a copy takes longer than
#: the shortest links' whole static timeout, so a clock started at
#: hand-over is short even on an idle link.
FINITE = CONFIG.with_updates(
    failure_probability=0.0, loss_rate=0.0, link_service_time=0.05
)


@pytest.fixture
def missort_mutation(monkeypatch):
    monkeypatch.setattr(sanity, "MUTATE_MISSORT_SENDING_LIST", True)


@pytest.fixture
def skip_cancel_mutation(monkeypatch):
    monkeypatch.setattr(sanity, "MUTATE_SKIP_TIMER_CANCEL", True)


@pytest.fixture
def arm_at_enqueue_mutation(monkeypatch):
    monkeypatch.setattr(sanity, "MUTATE_ARM_AT_ENQUEUE", True)


def test_missorted_sending_list_is_caught(missort_mutation):
    """An out-of-order sending list dies at table construction."""
    with pytest.raises(InvariantViolation) as excinfo:
        # The violation fires inside strategy.setup(), i.e. already during
        # build_environment — before a single event runs.
        build_environment(CONFIG, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.SENDING_LIST_ORDER
    report = excinfo.value.report()
    assert "sending_list_order" in report


def test_missort_does_not_leak_installed_sanitizer(missort_mutation):
    """An aborted build must uninstall its sanitizer (try/finally)."""
    with pytest.raises(InvariantViolation):
        build_environment(CONFIG, "DCRD", seed=3)
    assert sanity.ACTIVE is None


def test_leaked_ack_timer_is_caught(skip_cancel_mutation):
    """Skipping the ACK-path timer cancel surfaces as a timer orphan."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.TIMER_ORPHAN
    assert excinfo.value.details["orphans"] >= 1


def test_violation_report_carries_context(skip_cancel_mutation):
    """The structured report names the kind and the offending details."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    report = excinfo.value.report()
    assert "timer_orphan" in report
    assert "first_token" in report


def test_violation_report_embeds_trace_excerpt(skip_cancel_mutation):
    """--sanitize --trace: the violation carries the offending frame's
    lifecycle excerpt, captured at raise time from the installed tracer."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG.with_updates(trace=True), "DCRD", seed=3)
    violation = excinfo.value
    assert violation.kind == sanity.TIMER_ORPHAN
    assert violation.frames  # the leaked timer's outstanding copy
    assert violation.trace_excerpt
    frame = violation.frames[0]
    # Every excerpt line is about the offending frame, and its lifecycle
    # (the transmit whose timer leaked) is actually in there.
    assert all(
        f"msg={frame.msg_id}" in line or f"transfer={frame.transfer_id}" in line
        for line in violation.trace_excerpt
    )
    assert any("transmit" in line for line in violation.trace_excerpt)
    report = violation.report()
    assert "trace excerpt:" in report
    assert violation.trace_excerpt[-1] in report


def test_excerpt_absent_without_tracer(skip_cancel_mutation):
    """Sanitize-only runs keep the old report shape (no excerpt section)."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    assert excinfo.value.trace_excerpt == ()
    assert "trace excerpt:" not in excinfo.value.report()


@pytest.mark.parametrize(
    "flag", ["MUTATE_MISSORT_SENDING_LIST", "MUTATE_SKIP_TIMER_CANCEL"]
)
def test_mutations_inert_without_sanitizer(monkeypatch, flag):
    """Flags only matter under the sanitizer: plain runs are bit-identical."""
    plain_config = CONFIG.with_updates(sanitize=False)
    baseline = run_single(plain_config, "DCRD", seed=3).as_dict()
    monkeypatch.setattr(sanity, flag, True)
    mutated = run_single(plain_config, "DCRD", seed=3).as_dict()
    assert mutated == baseline


@pytest.mark.parametrize("discipline", ["fifo", "edf"])
def test_clock_armed_at_enqueue_is_caught(arm_at_enqueue_mutation, discipline):
    """A timer due before its copy has left the sender dies on the spot:
    under FIFO when it is armed, under EDF when the server picks the copy."""
    config = FINITE.with_updates(queue_discipline=discipline)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    violation = excinfo.value
    assert violation.kind == sanity.TIMER_BEFORE_WIRE
    assert violation.details["deadline"] < violation.details["wire_clear"]
    assert violation.frames


def test_clock_armed_at_enqueue_is_invisible_without_queues(monkeypatch):
    """Infinite capacity: the wire clears at hand-over, the mutation is a
    no-op and the invariant stays silent."""
    baseline = run_single(CONFIG, "DCRD", seed=3)
    monkeypatch.setattr(sanity, "MUTATE_ARM_AT_ENQUEUE", True)
    mutated = run_single(CONFIG, "DCRD", seed=3)
    assert mutated.perf["sanity.violations"] == 0.0
    assert mutated == baseline


@pytest.mark.parametrize("discipline", ["fifo", "edf"])
def test_arm_at_enqueue_inert_without_sanitizer(monkeypatch, discipline):
    """Unsanitized finite-capacity runs never see the flag, and the
    sanitized run without it is clean."""
    config = FINITE.with_updates(queue_discipline=discipline)
    clean = run_single(config, "DCRD", seed=3)
    assert clean.perf["sanity.violations"] == 0.0
    assert clean.perf["arq.ack_timeouts"] == 0.0
    plain = config.with_updates(sanitize=False)
    baseline = run_single(plain, "DCRD", seed=3).as_dict()
    monkeypatch.setattr(sanity, "MUTATE_ARM_AT_ENQUEUE", True)
    assert run_single(plain, "DCRD", seed=3).as_dict() == baseline
