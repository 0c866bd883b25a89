"""The wrappers: resolved by name, absent targets skipped, spans nest."""

import time

import pytest

import layers
import run
import tracing
import workloads
from repro import probes
from repro.experiments.config import ExperimentConfig


class Toy:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.001)

    @staticmethod
    def helper(value):
        return value + 1


TOY_TARGETS = (
    ("toy.outer", __name__, "Toy.outer"),
    ("toy.inner", __name__, "Toy.inner"),
    ("other.helper", __name__, "Toy.helper"),
)


def small_workload(**changes):
    config = dict(
        topology_kind="regular", degree=4, num_nodes=12, num_topics=3,
        failure_probability=0.05, duration=5.0,
    )
    config.update(changes)
    return workloads.SimWorkload(name="small", why="test", config=ExperimentConfig(**config), reps=2)


def test_missing_targets_are_recorded_and_skipped():
    recorder = tracing.Recorder()
    recorder.install(
        TOY_TARGETS
        + (
            ("gone.method", "repro.sim.engine", "Simulator.no_such_method"),
            ("gone.klass", "repro.sim.engine", "NoSuchClass.run"),
            ("gone.module", "repro.no_such_module", "f"),
        )
    )
    try:
        assert recorder.absent == [
            "repro.sim.engine:Simulator.no_such_method",
            "repro.sim.engine:NoSuchClass.run",
            "repro.no_such_module:f",
        ]
        assert Toy().outer() == "done"
    finally:
        recorder.restore()
    assert len(recorder.starts) == 3


def test_restore_puts_the_originals_back():
    original = Toy.__dict__["outer"], Toy.__dict__["helper"]
    recorder = tracing.Recorder()
    recorder.install(TOY_TARGETS)
    assert Toy.__dict__["outer"] is not original[0]
    assert isinstance(Toy.__dict__["helper"], staticmethod)
    assert Toy.helper(1) == 2
    recorder.restore()
    assert (Toy.__dict__["outer"], Toy.__dict__["helper"]) == original


def test_self_time_is_duration_minus_children():
    recorder = tracing.Recorder()
    recorder.install(TOY_TARGETS)
    try:
        start = time.perf_counter()
        Toy().outer()
        Toy.helper(1)
        time.sleep(0.002)
        end = time.perf_counter()
    finally:
        recorder.restore()
    window = recorder.window(start, end)
    assert window.calls("toy.outer") == 1
    assert window.calls("toy.inner") == 2
    assert window.calls("toy") == 3
    # inner is nested in a span of its own layer: one entry into "toy".
    assert window.entries("toy") == 1
    assert window.entries("other") == 1
    inner = window.self_time("toy.inner")
    outer_self = window.self_time("toy.outer")
    assert inner >= 0.002
    assert 0.002 <= outer_self < window.inclusive_time("toy.outer")
    assert window.inclusive_time("toy.outer") == pytest.approx(outer_self + inner)
    assert list(recorder.parents[:3]) == [-1, 0, 0]
    assert 0.0 < window.unattributed_share < 1.0
    assert not window.has("links")


def test_spans_outside_the_window_are_ignored():
    recorder = tracing.Recorder()
    recorder.install(TOY_TARGETS)
    try:
        Toy().outer()
        start = time.perf_counter()
        Toy().inner()
        end = time.perf_counter()
    finally:
        recorder.restore()
    window = recorder.window(start, end)
    assert window.calls("toy.outer") == 0
    assert window.calls("toy.inner") == 1


def traced_small(targets):
    workload = small_workload()
    untraced = workload.rep(3)
    recorder = tracing.Recorder()
    recorder.install(targets)
    probes.attach(recorder.probe_counts)
    try:
        traced = workload.rep(3)
    finally:
        probes.detach(recorder.probe_counts)
        recorder.restore()
    window = recorder.window(traced.timed.started, traced.timed.ended)
    return untraced, traced, layers.per_layer(traced, untraced, window, recorder)


def test_traced_run_reproduces_the_untraced_one():
    untraced, traced, values = traced_small(tracing.TARGETS)
    assert not untraced.problems and not traced.problems
    assert traced.simulated == untraced.simulated
    assert set(values) == {name for name, _unit, _better in layers.PER_LAYER}
    assert layers.ABSENT not in values.values()
    assert values["sim.events"] == traced.facts["events"] > 0
    assert values["arq.timers_elided"] > 0
    assert values["arq.send_calls"] == values["messages.forks"]
    assert values["ordering.offers"] == 0 and values["codec.encode_calls"] == 0
    assert values["links.enqueued"] == 0


def test_a_folded_away_method_reads_absent_not_a_crash():
    kept = tuple(t for t in tracing.TARGETS if not t[0].startswith(("arq.", "codec.")))
    _untraced, _traced, values = traced_small(kept)
    assert values["arq.send_calls"] == layers.ABSENT
    assert values["arq.self_s"] == layers.ABSENT
    assert values["arq.elided_share"] == layers.ABSENT
    # Counters the program keeps itself are still there ...
    assert values["arq.timers_elided"] > 0
    # ... and a socket-only layer is a true zero on the simulator.
    assert values["codec.encode_calls"] == 0.0
    assert values["links.self_s"] > 0


def test_ordering_and_queueing_counters_only_where_they_apply():
    workload = small_workload(ordering="total")
    recorder = tracing.Recorder()
    recorder.install()
    probes.attach(recorder.probe_counts)
    try:
        rep = workload.rep(1)
    finally:
        probes.detach(recorder.probe_counts)
        recorder.restore()
    values = layers.per_layer(rep, rep, recorder.window(rep.timed.started, rep.timed.ended), recorder)
    assert values["ordering.offers"] > 0
    assert values["ordering.holds"] > 0
    assert values["ordering.held_for_p50_s"] > 0


def test_untraced_pass_reports_every_end_to_end_metric(capsys, monkeypatch):
    monkeypatch.setitem(workloads.BY_NAME, "small", small_workload())
    assert run.run_one("small", seed=2, seconds=8, trace=0) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    import json

    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [name for name, *_rest in layers.END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_a_failed_check_fails_the_run(capsys, monkeypatch):
    impossible = small_workload(failure_probability=0.5)
    monkeypatch.setitem(
        workloads.BY_NAME, "small",
        workloads.SimWorkload("small", "test", impossible.config, reps=1, min_delivery=1.0),
    )
    assert run.run_one("small", seed=2, seconds=8, trace=0) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED: delivery_ratio" in out
    import json

    assert json.loads(out.splitlines()[-1])["correct"] is False
