"""Unit tests for CSV / row export."""

import csv
import io

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import (
    EXPORT_FIELDS,
    sweep_rows,
    sweep_to_csv,
)
from repro.experiments.sweeps import sweep

FAST = ExperimentConfig(duration=5.0, drain=1.0, num_topics=2, num_nodes=5)


def small_sweep():
    configs = {0.0: FAST, 0.05: FAST.with_updates(failure_probability=0.05)}
    return sweep("demo", "pf", configs, seeds=(1,), strategies=("DCRD", "ORACLE"))


def test_rows_cover_grid():
    result = small_sweep()
    rows = sweep_rows(result)
    assert len(rows) == 4  # 2 x-values x 2 strategies
    assert {row["strategy"] for row in rows} == {"DCRD", "ORACLE"}
    assert {row["pf"] for row in rows} == {0.0, 0.05}


def test_rows_contain_all_fields():
    rows = sweep_rows(small_sweep())
    for field in EXPORT_FIELDS:
        assert field in rows[0]


def test_csv_round_trip(tmp_path):
    result = small_sweep()
    path = tmp_path / "out.csv"
    text = sweep_to_csv(result, path)
    assert path.read_text() == text
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 4
    assert float(parsed[0]["delivery_ratio"]) <= 1.0
