"""Mutation smoke: deliberately break an invariant, the sanitizer must bite.

A sanitizer that never fires is indistinguishable from one that checks
nothing. These tests inject faults through :mod:`tests.mutations` — each
helper patches the one production method a specific, realistic bug would
corrupt — and assert that the run dies with an :class:`InvariantViolation`
of exactly the matching kind:

* ``missort_sending_list`` hands the data plane a sending list out of
  Theorem-1 (d, r) order → ``sending_list_order`` at table-build time;
* ``skip_timer_cancel`` leaks ACK timers instead of cancelling them when
  the ACK arrives → ``timer_orphan`` in the end-of-drain check;
* ``arm_clock_at_enqueue`` starts every ACK clock when the copy is handed
  to its link instead of when its last bit leaves the sender →
  ``timer_before_wire`` on finite-capacity links, at the first timer armed
  short of its copy's serialisation (and nothing at all on
  infinite-capacity links, where the two instants coincide);
* ``shrink_message_horizon`` derives a 10 ms message horizon where a
  finite one is proven → ``copy_past_horizon`` at the first copy that
  arrives later than that after its publish.
"""

import pytest

from repro import probes, sanity
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, run_single
from repro.record import RunRecord
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


#: The same world on finite-capacity links, loss-free (every timeout the
#: mutation provokes is spurious). Serialising a copy takes longer than
#: the shortest links' whole static timeout, so a clock started at
#: hand-over is short even on an idle link.
FINITE = CONFIG.with_updates(
    failure_probability=0.0, loss_rate=0.0, link_service_time=0.05
)


@pytest.fixture
def missort_mutation(monkeypatch):
    mutations.missort_sending_list(monkeypatch)


@pytest.fixture
def skip_cancel_mutation(monkeypatch):
    mutations.skip_timer_cancel(monkeypatch)


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
    """An aborted build must detach its sanitizer (try/finally)."""
    with pytest.raises(InvariantViolation):
        build_environment(CONFIG, "DCRD", seed=3)
    assert probes.observers() == ()


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
    lifecycle excerpt, captured at raise time from the run's record."""
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


def test_violation_excerpt_comes_only_from_the_raising_record(skip_cancel_mutation):
    """A tracing record attached to the bus directly lends nothing: a
    sanitize-only run's violation carries no excerpt, and a traced run's
    excerpt is its own record's, not the bystander's."""
    bystander = RunRecord(trace=True)
    probes.attach(bystander)
    try:
        with pytest.raises(InvariantViolation) as untraced:
            run_single(CONFIG, "DCRD", seed=3)
        with pytest.raises(InvariantViolation) as traced:
            run_single(CONFIG.with_updates(trace=True), "DCRD", seed=3)
    finally:
        probes.detach(bystander)
    assert bystander.events_recorded > 0
    assert untraced.value.trace_excerpt == ()
    # Ids restart per run and the bystander heard both runs, so its
    # excerpt of the frame is not the raising record's.
    violation = traced.value
    frame = violation.frames[0]
    own = bystander.excerpt(frames=(frame,))
    assert violation.trace_excerpt and violation.trace_excerpt != own
    assert any(
        f"transfer={frame.transfer_id}" in line for line in violation.trace_excerpt
    )


def test_excerpt_absent_without_tracer(skip_cancel_mutation):
    """Sanitize-only runs keep the old report shape (no excerpt section)."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    assert excinfo.value.trace_excerpt == ()
    assert "trace excerpt:" not in excinfo.value.report()


@pytest.mark.parametrize("discipline", ["fifo", "edf"])
def test_clock_armed_at_enqueue_is_caught(monkeypatch, discipline):
    """The clean finite-capacity run is violation- and timeout-free; armed
    at hand-over, a timer due before its copy has left the sender dies on
    the spot: under FIFO when it is armed, under EDF when the server picks
    the copy."""
    config = FINITE.with_updates(queue_discipline=discipline)
    clean = run_single(config, "DCRD", seed=3)
    assert clean.perf["sanity.violations"] == 0.0
    assert clean.perf["arq.ack_timeouts"] == 0.0
    mutations.arm_clock_at_enqueue(monkeypatch)
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
    mutations.arm_clock_at_enqueue(monkeypatch)
    mutated = run_single(CONFIG, "DCRD", seed=3)
    assert mutated.perf["sanity.violations"] == 0.0
    assert mutated == baseline


def test_a_shrunk_message_horizon_is_caught(monkeypatch):
    """The derived horizon holds on the lossy world (no violation); cut to
    10 ms, the first copy that takes longer dies on arrival."""
    config = CONFIG.with_updates(ordering="total")
    clean = run_single(config, "DCRD", seed=3)
    assert clean.perf["sanity.violations"] == 0.0
    mutations.shrink_message_horizon(monkeypatch)
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(config, "DCRD", seed=3)
    violation = excinfo.value
    assert violation.kind == sanity.COPY_PAST_HORIZON
    assert violation.details["horizon"] == 0.01
    assert violation.details["arrival"] > violation.details["publish_time"] + 0.01

