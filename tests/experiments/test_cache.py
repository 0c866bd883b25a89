"""Tests for the content-addressed sweep-cell cache and its journal."""

import dataclasses
import json

import pytest

from repro.experiments.cache import (
    SweepCache,
    canonical_config,
    cell_digest,
    code_fingerprint,
    config_from_dict,
    summary_from_payload,
    summary_payload,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.experiments.sweeps import SweepExecutor, sweep

FAST = ExperimentConfig(duration=6.0, drain=2.0, num_topics=2, num_nodes=6)

#: A non-default value of matching type for every config field, so the
#: digest-sensitivity test below covers the whole dataclass.
FIELD_VARIANTS = {
    "topology_kind": "ring",
    "num_nodes": 7,
    "degree": 3,
    "delay_range": (0.020, 0.060),
    "loss_rate": 5e-4,
    "loss_rate_range": (1e-4, 2e-4),
    "failure_probability": 0.05,
    "failure_epoch": 2.0,
    "node_failure_probability": 0.01,
    "link_service_time": 0.001,
    "queue_discipline": "edf+drop",
    "num_topics": 3,
    "publish_interval": 0.5,
    "ps_range": (0.3, 0.7),
    "deadline_factor": 4.0,
    "deadline_factor_choices": (2.0, 4.0),
    "m": 2,
    "ack_timeout_factor": 3.0,
    "ordering": "fifo",
    "monitor_period": 150.0,
    "monitor_mode": "sampled",
    "duration": 8.0,
    "drain": 3.0,
    "sanitize": True,
    "trace": True,
}


def test_field_variants_cover_every_config_field():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(FIELD_VARIANTS) == names


def test_digest_is_stable():
    assert cell_digest(FAST, "DCRD", 1) == cell_digest(FAST, "DCRD", 1)


@pytest.mark.parametrize("field_name", sorted(FIELD_VARIANTS))
def test_digest_changes_with_every_config_field(field_name):
    base = cell_digest(FAST, "DCRD", 1)
    changed = FAST.with_updates(**{field_name: FIELD_VARIANTS[field_name]})
    assert getattr(changed, field_name) != getattr(FAST, field_name)
    assert cell_digest(changed, "DCRD", 1) != base


def test_digest_changes_with_strategy_seed_and_fingerprint():
    base = cell_digest(FAST, "DCRD", 1)
    assert cell_digest(FAST, "D-Tree", 1) != base
    assert cell_digest(FAST, "DCRD", 2) != base
    assert cell_digest(FAST, "DCRD", 1, fingerprint="not-the-code") != base
    assert cell_digest(FAST, "DCRD", 1, fingerprint=code_fingerprint()) == base


def test_config_round_trips_through_canonical_dict():
    config = FAST.with_updates(
        deadline_factor_choices=(2.0, 4.0), loss_rate_range=(1e-4, 2e-4)
    )
    payload = canonical_config(config)
    # JSON round-trip: tuples become lists and back.
    payload = json.loads(json.dumps(payload))
    assert config_from_dict(payload) == config


def test_summary_payload_round_trips_bit_exactly():
    summary = run_single(FAST, "DCRD", seed=3)
    restored = summary_from_payload(
        json.loads(json.dumps(summary_payload(summary)))
    )
    assert restored == summary  # dataclass equality (perf excluded)
    assert restored.as_dict() == summary.as_dict()
    assert restored.late_normalized_delays == summary.late_normalized_delays
    assert restored.perf == summary.perf


def test_cached_cell_is_bit_identical_to_fresh_run(tmp_path):
    fresh = run_single(FAST, "DCRD", seed=1)
    with SweepCache(tmp_path / "cache") as cache:
        digest = cell_digest(FAST, "DCRD", 1)
        cache.put(digest, FAST, "DCRD", 1, fresh)
    reloaded = SweepCache(tmp_path / "cache")
    cached = reloaded.get(digest)
    assert cached is not None
    assert cached.as_dict() == fresh.as_dict()
    assert cached.late_normalized_delays == fresh.late_normalized_delays


def test_journal_survives_truncated_trailing_line(tmp_path):
    root = tmp_path / "cache"
    summary = run_single(FAST, "DCRD", seed=1)
    digest = cell_digest(FAST, "DCRD", 1)
    with SweepCache(root) as cache:
        cache.put(digest, FAST, "DCRD", 1, summary)
    # Simulate a kill mid-write: a half-written JSON line at the end.
    with (root / "journal.jsonl").open("a") as handle:
        handle.write('{"digest": "abc", "summ')
    resumed = SweepCache(root)
    assert len(resumed) == 1
    assert resumed.get(digest) == summary
    # The resumed cache can keep appending past the corrupt line.
    other = cell_digest(FAST, "DCRD", 2)
    resumed.put(other, FAST, "DCRD", 2, run_single(FAST, "DCRD", seed=2))
    resumed.close()
    assert len(SweepCache(root)) == 2


def test_kill_and_resume_mid_grid(tmp_path):
    configs = {0.0: FAST, 0.08: FAST.with_updates(failure_probability=0.08)}
    kwargs = dict(seeds=(1,), strategies=("DCRD", "D-Tree"))

    # "Kill" after two of four cells: journal only those two.
    partial = SweepCache(tmp_path / "cache")
    with SweepExecutor(cache=partial) as executor:
        sweep("s", "pf", {0.0: FAST}, executor=executor, **kwargs)
    partial.close()
    assert len(partial) == 2

    resumed_cache = SweepCache(tmp_path / "cache")
    with SweepExecutor(cache=resumed_cache) as executor:
        result = sweep("s", "pf", configs, executor=executor, **kwargs)
        counters = executor.counters()
    assert counters["sweep.cells_cached"] == 2
    assert counters["sweep.cells_computed"] == 2
    plain = sweep("s", "pf", configs, **kwargs)
    for x in plain.x_values:
        for strategy in plain.strategies:
            assert (
                result.cell(x, strategy).as_dict()
                == plain.cell(x, strategy).as_dict()
            )


def test_fresh_bypasses_cache_but_repopulates(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    kwargs = dict(seeds=(1,), strategies=("DCRD",))
    with SweepExecutor(cache=cache) as executor:
        first = sweep("s", "pf", {0.0: FAST}, executor=executor, **kwargs)
    writes_before = cache.writes
    with SweepExecutor(cache=cache, fresh=True) as executor:
        second = sweep("s", "pf", {0.0: FAST}, executor=executor, **kwargs)
        counters = executor.counters()
    assert counters.get("sweep.cells_cached", 0) == 0
    assert counters["sweep.cells_computed"] == 1
    assert cache.writes == writes_before + 1  # repopulated
    assert first.cell(0.0, "DCRD").as_dict() == second.cell(0.0, "DCRD").as_dict()


def test_cache_coverage_and_counters(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    digest = cell_digest(FAST, "DCRD", 1)
    assert cache.coverage([]) == 1.0
    assert cache.coverage([digest]) == 0.0
    assert cache.get(digest) is None and cache.misses == 1
    cache.put(digest, FAST, "DCRD", 1, run_single(FAST, "DCRD", seed=1))
    assert digest in cache
    assert cache.coverage([digest, "missing"]) == 0.5
    assert cache.get(digest) is not None and cache.hits == 1
