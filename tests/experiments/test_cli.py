"""Tests for the repro-sim command-line interface."""

import pytest

from repro import trace
from repro.cli import _trace_path, build_parser, main
from repro.trace import load_jsonl

FAST_COMPARE = [
    "compare",
    "--duration", "4",
    "--nodes", "6",
    "--topics", "2",
    "--strategies", "DCRD", "D-Tree",
]


def test_compare_prints_table(capsys):
    assert main(FAST_COMPARE) == 0
    out = capsys.readouterr().out
    assert "DCRD" in out and "D-Tree" in out and "pkts/sub" in out


def test_compare_respects_topology_flags(capsys):
    argv = FAST_COMPARE + ["--topology", "regular", "--degree", "3"]
    assert main(argv) == 0
    assert "deg=3" in capsys.readouterr().out


def test_sweep_prints_each_metric(capsys):
    argv = [
        "sweep", "pf",
        "--values", "0", "0.05",
        "--duration", "4",
        "--nodes", "6",
        "--topics", "2",
        "--strategies", "DCRD",
        "--metrics", "delivery_ratio",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Delivery Ratio" in out and "0.0500" in out


def test_sweep_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "degree",
        "--values", "3",
        "--duration", "4",
        "--nodes", "6",
        "--topics", "2",
        "--strategies", "DCRD",
        "--csv", str(csv_path),
    ]
    assert main(argv) == 0
    assert csv_path.exists()
    assert "strategy" in csv_path.read_text()


def test_compare_trace_exports_queryable_jsonl(tmp_path, capsys, monkeypatch):
    """--trace writes one JSONL per strategy; journeys reconstruct offline."""
    monkeypatch.chdir(tmp_path)
    argv = FAST_COMPARE + ["--trace", "--seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[trace written to trace-DCRD.jsonl]" in out
    assert "[trace written to trace-D-Tree.jsonl]" in out
    for name in ("trace-DCRD.jsonl", "trace-D-Tree.jsonl"):
        tracer = load_jsonl(str(tmp_path / name))
        assert tracer.events_recorded > 0
        delivered = {
            (e.msg, e.node) for e in tracer.events() if e.kind == "deliver"
        }
        assert delivered
        for msg, subscriber in delivered:
            journey = trace.journey(tracer, msg, subscriber)
            assert journey.chain[-1] == subscriber
            for previous, current in zip(journey.hops, journey.hops[1:]):
                assert previous.dst == current.src


def test_compare_trace_custom_path(tmp_path, capsys):
    target = tmp_path / "run.jsonl"
    argv = FAST_COMPARE[:-1] + ["--trace", str(target)]  # DCRD only
    assert main(argv) == 0
    assert (tmp_path / "run-DCRD.jsonl").exists()


def test_trace_path_resolution():
    assert str(_trace_path("", "DCRD")) == "trace-DCRD.jsonl"
    assert str(_trace_path("out/{strategy}.jsonl", "D-Tree")) == "out/D-Tree.jsonl"
    assert str(_trace_path("runs/full.jsonl", "DCRD+persist")) == (
        "runs/full-DCRD-persist.jsonl"
    )


def test_figure_subcommand_runs(capsys):
    argv = ["figure", "6", "--duration", "3", "--repetitions", "1"]
    assert main(argv) == 0
    assert "QoS Delivery Ratio" in capsys.readouterr().out


def test_figure7_subcommand_renders_cdf(capsys):
    argv = ["figure", "7", "--duration", "5", "--repetitions", "1"]
    assert main(argv) == 0
    assert "delay / requirement" in capsys.readouterr().out


def test_figure8_subcommand_renders_both_m(capsys):
    argv = ["figure", "8", "--duration", "3", "--repetitions", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "m=1" in out and "m=2" in out


def test_study_subcommand_runs(capsys):
    argv = ["study", "churn", "--duration", "4", "--repetitions", "1"]
    assert main(argv) == 0
    assert "churn" in capsys.readouterr().out


def test_unknown_study_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["study", "quantum"])


def test_study_choices_are_the_table_entries():
    for name in ("ablations", "priority", "heterogeneous"):
        assert build_parser().parse_args(["study", name]).name == name
    for name in ("ablation-timeout", "ablation-monitoring", "fig2"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", name])


def test_unknown_axis_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "magic", "--values", "1"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
