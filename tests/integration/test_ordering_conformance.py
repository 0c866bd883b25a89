"""Three-way sim <-> live <-> multi-process conformance of the ordering layer.

Each guarantee level runs the same scripted scenario on the discrete-
event kernel, the single-process asyncio TCP runtime, and a multi-
process broker fleet, sanitized, and the suite asserts:

* **delivery sets are untouched** — the hold-back pipelines reorder,
  they never lose or invent: delivered/gave-up pair sets are identical
  across all three substrates and identical to an ordering-off run;
* **the guarantee actually holds on every substrate** — with one
  publisher stream per scenario, each subscriber's first-delivery order
  must be the complete publish order (which also implies total-order
  agreement across subscribers), regardless of arrival jitter;
* **sanitizer-clean** — zero violations from the per-guarantee order
  checks while the runs execute, on all three substrates.

Duplicate copies (multipath ``m=2``) are delivered at timing-dependent
positions on purpose — the guarantee is about *first* deliveries, so the
comparison is over per-node first-occurrence subsequences.

The scenario timing constants (``SCENARIO_STALL_TIMEOUT``,
``SCENARIO_TOTAL_HOLD``) widen the hold-back windows far past worst-case
retransmit recovery, so wall-clock jitter cannot change what a pipeline
releases; live/cluster settle timeouts are raised accordingly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import pytest

from repro.live.cluster import run_cluster_scenario
from repro.live.config import LiveConfig
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import SCENARIO_KINDS, make_scenario, run_sim_scenario
from repro.ordering.spec import LEVELS

#: One three-way cell per guarantee level, on the scenario with real
#: retransmit-driven reordering pressure (link loss + ARQ recovery).
THREE_WAY_KIND = "link_loss"
THREE_WAY_PROCESSES = 3

#: Live settle must outlast the widened hold-back windows
#: (SCENARIO_TOTAL_HOLD=1.0 holds every frame until a second after its
#: publish instant; SCENARIO_STALL_TIMEOUT=4.0 bounds a worst-case
#: watchdog chain) plus TCP jitter.
LIVE_CONFIG = LiveConfig(settle_timeout=15.0)
CLUSTER_SETTLE = 20.0


def ordered(kind: str, level: str) -> "Scenario":
    return replace(make_scenario(kind), ordering=level)


def first_delivery_sequences(result: Dict) -> Dict[int, List[int]]:
    """Per-node order of *first* deliveries (duplicates dropped)."""
    sequences: Dict[int, List[int]] = {}
    for msg, node in result["delivery_order"]:
        seq = sequences.setdefault(node, [])
        if msg not in seq:
            seq.append(msg)
    return sequences


def assert_guarantee_holds(result: Dict) -> None:
    """Single-stream scenarios: every level collapses to publish order."""
    assert result["violations"] == 0
    assert result["in_flight"] == 0
    sequences = first_delivery_sequences(result)
    for node, sequence in sequences.items():
        expected = sorted(
            msg for msg, subscriber in result["delivered"] if subscriber == node
        )
        assert sequence == expected, (
            f"node {node} first-delivery order {sequence} != publish "
            f"order {expected}"
        )


@pytest.mark.parametrize("level", LEVELS)
def test_sim_live_and_multiproc_agree_under_ordering(level):
    scenario = ordered(THREE_WAY_KIND, level)
    baseline = run_sim_scenario(make_scenario(THREE_WAY_KIND), seed=0, sanitize=True)
    sim = run_sim_scenario(ordered(THREE_WAY_KIND, level), seed=0, sanitize=True)
    live = run_live_scenario(
        ordered(THREE_WAY_KIND, level), seed=0, sanitize=True, config=LIVE_CONFIG
    )
    multi = run_cluster_scenario(
        scenario,
        seed=0,
        sanitize=True,
        processes=THREE_WAY_PROCESSES,
        settle_timeout=CLUSTER_SETTLE,
    )
    # Reorder-only: the ordering layer never changes *what* is delivered.
    assert sim["delivered"] == live["delivered"] == multi["delivered"]
    assert sim["delivered"] == baseline["delivered"]
    assert sim["gave_up"] == live["gave_up"] == multi["gave_up"] == frozenset()
    assert len(sim["delivered"]) == sim["expected"]
    for result in (sim, live, multi):
        assert_guarantee_holds(result)
    # With ascending-complete per-node sequences proven on each substrate,
    # the three substrates necessarily agree on every node's first-delivery
    # order — the cross-substrate conformance the tentpole promises.
    assert (
        first_delivery_sequences(sim)
        == first_delivery_sequences(live)
        == first_delivery_sequences(multi)
    )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_sim_matrix_every_kind_upholds_every_level(kind, level):
    """Cheap wide coverage: all scenario kinds x levels on the kernel."""
    baseline = run_sim_scenario(make_scenario(kind), seed=1, sanitize=True)
    sim = run_sim_scenario(ordered(kind, level), seed=1, sanitize=True)
    assert sim["delivered"] == baseline["delivered"]
    assert sim["gave_up"] == baseline["gave_up"]
    assert_guarantee_holds(sim)


def test_ordering_off_scenarios_are_bit_identical_to_seed_behaviour():
    """ordering=None must leave the scenario runs untouched end to end."""
    for kind in SCENARIO_KINDS:
        plain = run_sim_scenario(make_scenario(kind), seed=2, sanitize=True)
        nulled = run_sim_scenario(
            replace(make_scenario(kind), ordering=None), seed=2, sanitize=True
        )
        assert plain == nulled
