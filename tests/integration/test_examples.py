"""Smoke tests: every example script runs end-to-end at reduced scale."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_runs_and_reports_all_strategies():
    out = run_example("quickstart.py", "--duration", "8", "--seed", "1")
    for name in ("DCRD", "R-Tree", "D-Tree", "ORACLE", "Multipath"):
        assert name in out
    assert "delivered" in out


def test_air_surveillance_two_phases():
    out = run_example("air_surveillance.py", "--duration", "8", "--seed", "2")
    assert "clear weather" in out
    assert "weather front" in out
    assert "DCRD" in out and "D-Tree" in out


def test_market_data_fanout_reports_cost():
    out = run_example(
        "market_data_fanout.py", "--duration", "6", "--seed", "3"
    )
    assert "Multipath" in out
    assert "traffic" in out


def test_failure_storm_includes_persistence_counters():
    out = run_example("failure_storm.py", "--duration", "6", "--seed", "4")
    assert "DCRD+persist" in out
    assert "persisted=" in out


def test_congestion_meltdown_shows_all_regimes():
    out = run_example("congestion_meltdown.py", "--duration", "4")
    for name in ("DCRD", "D-Tree", "Multipath"):
        assert name in out
    assert "Takeaway" in out


def test_live_delivery_rate_attaches_custom_observer():
    out = run_example(
        "live_delivery_rate.py",
        "--duration", "6", "--seed", "7", "--window", "2",
    )
    assert "busiest broker=" in out  # periodic live report lines
    assert "Observer saw" in out
    assert "live.deliveries=" in out  # merged into summary.perf


def test_embedded_api_logs_deliveries():
    out = run_example("embedded_api.py")
    assert "ops-east" in out and "archiver" in out
    assert "deliveries" in out
