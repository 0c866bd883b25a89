"""Combined-mode runs over the probe bus.

Three guarantees when ``--sanitize --trace --perf`` are stacked on one run:

* the observed run is bit-identical to an unobserved one (the comparison
  table the CLI prints must not change by a character);
* the run's one record — checking and tracing — sees the same event
  stream as any other observer on the bus;
* tearing the run down detaches the record, restoring every
  ``repro.probes`` slot to the literal-``None`` no-op state.
"""

import pytest

from repro import probes
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment

COMBINED_CONFIG = ExperimentConfig(
    topology_kind="regular",
    degree=3,
    num_nodes=8,
    num_topics=3,
    failure_probability=0.05,
    duration=6.0,
    drain=3.0,
)

FAST_COMPARE = [
    "compare",
    "--duration", "4",
    "--nodes", "6",
    "--topics", "2",
    "--strategies", "DCRD",
    "--seed", "3",
]


def _comparison_table(out: str) -> str:
    """The strategy table only — the part that must be mode-invariant.

    The perf section (mode-dependent by design: it carries the observers'
    own counters) and the ``[trace written ...]`` notices are stripped.
    """
    head = out.split("Performance counters")[0]
    return "\n".join(
        line
        for line in head.splitlines()
        if line.strip() and not line.startswith("[trace written")
    )


def test_cli_combined_flags_match_plain_run(tmp_path, monkeypatch, capsys):
    """``--sanitize --trace --perf`` prints the same comparison table as a
    plain run, plus the observers' perf counters."""
    monkeypatch.chdir(tmp_path)
    assert main(FAST_COMPARE) == 0
    plain = capsys.readouterr().out

    assert main(FAST_COMPARE + ["--sanitize", "--trace", "--perf"]) == 0
    combined = capsys.readouterr().out

    assert _comparison_table(combined) == _comparison_table(plain)
    # Both modes surfaced through the merged perf snapshot.
    assert "sanity.events_checked" in combined
    assert "trace.events_recorded" in combined
    assert (tmp_path / "trace-DCRD.jsonl").exists()


def test_combined_observers_share_one_event_stream():
    """The run's record and an external counter subscribe to the same
    slots: per-family counts must agree between the two."""
    counters = probes.ProbeCounters()
    probes.attach(counters)
    try:
        config = COMBINED_CONFIG.with_updates(sanitize=True, trace=True)
        env = build_environment(config, "DCRD", seed=11)
        summary = env.execute()
    finally:
        probes.detach(counters)

    record = env.record
    assert record is not None and record.sanitize and record.trace
    # Every kernel pop reached the record (once) and the external counter.
    assert counters.counts["event_pop"] == record.events_popped > 0
    assert summary.perf["sanity.events_checked"] == float(record.events_popped)
    assert summary.perf["trace.sim_events"] == float(record.events_popped)
    # Data-plane families line up with the record's buffered stream.
    by_kind = {}
    for event in record.events():
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    assert counters.counts["deliver"] == by_kind.get("deliver", 0) > 0
    assert counters.counts["publish"] == by_kind.get("publish", 0) > 0
    # The runner merged the external observer's counters into the summary.
    assert summary.perf["probes.event_pop"] == float(counters.counts["event_pop"])


def test_run_teardown_restores_noop_slots():
    """After a combined run finishes, the bus is empty again: every probe
    slot is the literal ``None`` no-op and no observer remains attached."""
    config = COMBINED_CONFIG.with_updates(sanitize=True, trace=True)
    env = build_environment(config, "DCRD", seed=5)
    # build_environment detaches its record after the build; execute()
    # attaches it for the run and must detach it again on the way out.
    assert probes.observers() == ()
    env.execute()
    assert probes.observers() == ()
    for family in probes.FAMILIES:
        assert getattr(probes, "on_" + family) is None
