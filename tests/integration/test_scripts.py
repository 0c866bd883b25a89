"""Smoke tests for the top-level experiment and profiling scripts."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "run_experiments.py"
PROFILE = REPO / "scripts" / "profile_control_plane.py"


def run_script(tmp_path, *args):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path), *args],
        capture_output=True,
        text=True,
        timeout=900,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_single_figure_with_verification(tmp_path):
    out = run_script(
        tmp_path, "--duration", "8", "--repetitions", "1", "--only", "fig6"
    )
    assert (tmp_path / "fig6.txt").exists()
    assert "QoS Delivery Ratio" in out
    # The claim verifier ran and reported.
    assert "[PASS]" in out or "[FAIL]" in out


def test_extension_study_selection(tmp_path):
    out = run_script(
        tmp_path, "--duration", "8", "--repetitions", "1", "--only", "nodes"
    )
    assert (tmp_path / "extension_node_failures.txt").exists()
    assert "node crash probability" in out


def test_heterogeneous_study_selection(tmp_path):
    out = run_script(
        tmp_path, "--duration", "4", "--repetitions", "1", "--only", "heterogeneous"
    )
    assert (tmp_path / "extension_heterogeneous.txt").exists()
    assert "DCRD-naive-order" in out
    assert "heterogeneous: Theorem 1's order" in out


def test_unknown_name_exits_2(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path), "--only", "fig9"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=REPO,
    )
    assert result.returncode == 2
    assert "invalid choice: 'fig9'" in result.stderr


def test_cli_prints_the_script_table(tmp_path, capsys):
    """`--duration` means one thing to the script and to `repro-sim study`."""
    run_script(
        tmp_path, "--duration", "4", "--repetitions", "1", "--only", "nodes",
        "--no-cache",
    )
    assert main(["study", "nodes", "--duration", "4", "--repetitions", "1"]) == 0
    table = (tmp_path / "extension_node_failures.txt").read_text()
    assert table in capsys.readouterr().out


def test_control_plane_profile_prints_both_round_tables():
    """The profiler wraps the solver's per-block seam; a refactor that
    renames or bypasses it must fail here, not silently print nothing."""
    result = subprocess.run(
        [sys.executable, str(PROFILE), "--nodes", "40", "--top", "3"],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "=== batched kernel refresh ===" in out
    assert "kernel sweeps, 40-node setup solve" in out
    assert "first in-run refresh of refresh_controlplane (80 nodes, seed 1" in out
    # Each table opens with sweep 1 alone (its block evaluations, tables
    # and cells), then the 2-10 band.
    assert len(re.findall(r"^ +1-1 +\d+ +\d+ -> \d+ +\d+ +[\d.]+$", out, re.M)) == 2
    assert len(re.findall(r"^ +2-10 ", out, re.M)) == 2
    summaries = re.findall(r"^(\d+) sweeps of (\d+) blocks for (\d+) tables", out, re.M)
    assert [(int(blocks), int(tables)) for _, blocks, tables in summaries] == [
        (2, 53),
        (5, 201),
    ]


def test_hop_cost_attributes_the_per_hop_chain():
    """The attribution tool counts a short simulated run deterministically
    and names the data-plane functions it found."""
    command = [
        sys.executable,
        str(REPO / "scripts" / "hop_cost.py"),
        "lossy_failover",
        "--duration",
        "3",
        "--top",
        "40",
    ]
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            command, capture_output=True, text=True, timeout=600, cwd=REPO
        )
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    out = outputs[0]
    totals = {}
    for line in out.splitlines():
        name, _, value = line.partition(" ")
        if name in ("bytecodes_per_pair", "calls_per_pair"):
            totals[name] = float(value)
    assert totals["bytecodes_per_pair"] > 0 and totals["calls_per_pair"] > 0
    assert "send_data (repro/overlay/links.py:" in out
    assert "_start_clock (repro/routing/arq.py:" in out


def test_dedup_window_check_passes_on_a_lossy_world():
    """The CI gate: every broker's dedup window within its horizon bound."""
    result = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "dedup_window.py"),
            "lossy_failover",
            "--duration",
            "20",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr[-2000:]
    assert re.search(r"horizon=1\.101 s brokers=20 .* ok$", result.stdout, re.M)


def test_census_counts_the_lines_a_driver_reaches(tmp_path):
    """The line census runs a driver under the tracer and reports reached
    and executable lines per module, and the functions none of whose
    lines ran."""
    out = tmp_path / "census.txt"
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "census.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    text = out.read_text()
    rows = {}
    for line in text.splitlines():
        match = re.match(r"^(\S+)\s+(\d+)\s+(\d+)\s+[\d.]+%$", line)
        if match:
            rows[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    reached, lines = rows.pop("TOTAL")
    assert 0 < reached < lines
    assert (reached, lines) == tuple(map(sum, zip(*rows.values())))
    # The embedding example builds its world through the runner and never
    # touches the command line.
    assert rows["repro/experiments/runner.py"][0] > 0
    assert rows["repro/cli.py"][0] == 0
    assert "repro/cli.py:" in text.split("functions with no reached line")[1]


def _load_census():
    """``scripts/census.py`` as a module, leaving ``sys.path`` as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("census", REPO / "scripts" / "census.py")
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
    finally:
        sys.path[:] = path
    return census


def test_the_committed_census_counts_the_tree_s_lines():
    """``benchmarks/output/census.txt`` gives every module of ``src/repro``
    the executable lines the tree compiles to — checked on the Python
    minor the census was written with, since line tables differ between
    minors. A change to ``src/`` regenerates the census with it."""
    text = (REPO / "benchmarks" / "output" / "census.txt").read_text()
    census = _load_census()
    written = re.search(r"^# python: (\S+)$", text, re.M)
    assert written, "the census names no Python minor"
    if written.group(1) != census.python_minor():
        pytest.skip(f"census written with Python {written.group(1)}")
    committed = {}
    for line in text.splitlines():
        match = re.match(r"^(repro/\S+)\s+\d+\s+(\d+)\s+[\d.]+%$", line)
        if match:
            committed[match.group(1)] = int(match.group(2))
    tree = {
        census.module_name(path): len(census.executable_lines(codes))
        for path, codes in census.compile_package().items()
    }
    assert committed == tree

