"""BENCHMARK.json and the code must name the same things."""

import json
import os
import re

import layers
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_keys_and_command():
    data = manifest()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert data["paths"] == ["benchmarks/e2e"]
    assert data["run_seconds"] == run.DEFAULT_SECONDS


def test_workloads_match():
    data = manifest()
    assert [(w["name"], w["why"]) for w in data["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert 2 <= len(data["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])


def test_metrics_match():
    data = manifest()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in data["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] == list(layers.PER_LAYER)
    assert len(data["per_layer"]) <= 128
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in data["end_to_end"] + data["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
