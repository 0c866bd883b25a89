"""In-process tests of the multi-process broker partition seams.

The real deployment runs one :class:`PartitionRuntime` per OS process
(see ``tests/integration/test_multiproc_conformance.py``); these tests
run two partitions **on one asyncio loop** so the partition logic — the
split transport wiring, transfer-id striping, pre-registered
expectations, per-partition reports and merging — executes inside the
test process where coverage (and debuggers) can see it.

Co-locating partitions has one consequence the runtime is built to
tolerate: the probe bus is process-global, so each partition's ledger
(attached by its own observer session) hears both partitions' events and
is filtered to the hosted nodes at report time. The sanitizer is
exercised per-partition in the single-partition test instead (two would
contend for the global slot).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import time

import pytest

from repro import probes
from repro.live.broker import (
    PartitionRuntime,
    TRANSFER_STRIPE_BITS,
    broker_main,
    split_transfer_id,
)
from repro.live.cluster import allocate_ports, merge_reports, plan_cluster
from repro.live.config import LiveConfig
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import make_scenario, run_sim_scenario, scenario_to_dict
from repro.live.transport import LiveTransport
from repro.util.errors import ConfigurationError, SimulationError


# ---------------------------------------------------------------------------
# Transfer-id striping
# ---------------------------------------------------------------------------
def _first_transfer_id(stripe_group):
    scenario = make_scenario("failover_bounce")
    return PartitionRuntime(
        scenario, 0, [0], stripe_group=stripe_group
    ).first_transfer_id


class TestTransferStripe:
    def test_first_id_is_the_groups_first_local_sequence(self):
        assert split_transfer_id(_first_transfer_id(2)) == (2, 1)
        assert split_transfer_id(_first_transfer_id(5)) == (5, 1)
        assert _first_transfer_id(None) == 1

    def test_striped_ids_live_in_disjoint_ranges(self):
        # Group g counts local sequences 1 .. 2^bits - 1 from first(g):
        # its last id still splits to g, below the next group's first.
        last_of_2 = _first_transfer_id(2) + (1 << TRANSFER_STRIPE_BITS) - 2
        assert split_transfer_id(last_of_2) == (2, (1 << TRANSFER_STRIPE_BITS) - 1)
        assert last_of_2 < _first_transfer_id(3)

    def test_unstriped_ids_decompose_to_group_zero(self):
        assert split_transfer_id(1) == (0, 1)
        assert split_transfer_id((1 << TRANSFER_STRIPE_BITS) - 1) == (
            0,
            (1 << TRANSFER_STRIPE_BITS) - 1,
        )

    def test_invalid_group_rejected(self):
        with pytest.raises(ConfigurationError, match="stripe group"):
            _first_transfer_id(0)


# ---------------------------------------------------------------------------
# Two partitions on one loop
# ---------------------------------------------------------------------------
def _partition_configs(scenario, groups):
    """One LiveConfig per group, sharing the full peer-address map."""
    nodes = sorted(scenario.topology().nodes)
    plan = plan_cluster(nodes, len(groups))
    peers = dict(plan.addresses)
    return [LiveConfig(peers=peers) for _ in groups]


class _PublishStripes(probes.ProbeObserver):
    """The stripe group of every fresh (publish) copy."""

    def __init__(self) -> None:
        self.groups: set = set()

    def on_publish(self, frame):
        self.groups.add(split_transfer_id(frame.transfer_id)[0])


async def _run_partitions(scenario, groups, seed=0):
    """Run *groups* as co-located partitions; returns their reports and
    the stripe groups the publish copies were drawn from."""
    configs = _partition_configs(scenario, groups)
    stripes = _PublishStripes()
    runtimes = [
        PartitionRuntime(
            scenario,
            seed,
            group,
            config,
            sanitize=False,  # the probe-bus sanitizer slot is process-global
            stripe_group=min(group) + 1,
        )
        for group, config in zip(groups, configs)
    ]
    probes.attach(stripes)
    try:
        # Start concurrently: each partition binds its servers before
        # dialing, and the dial-retry loop covers the boot ordering —
        # the same dance the real process fleet does.
        await asyncio.gather(*(runtime.start() for runtime in runtimes))
        publish_times = [
            0.05 + i * scenario.publish_interval
            for i in range(scenario.publishes)
        ]
        for runtime in runtimes:
            runtime.begin(time.time(), publish_times)
        deadline = asyncio.get_running_loop().time() + 10.0
        while asyncio.get_running_loop().time() < deadline:
            done = all(r.done_publishing for r in runtimes)
            in_flight = sum(r.strategy.arq.in_flight for r in runtimes)
            if done and in_flight == 0:
                break
            await asyncio.sleep(0.02)
        return [runtime.report() for runtime in runtimes], stripes.groups
    finally:
        probes.detach(stripes)
        for runtime in runtimes:
            await runtime.close()


def test_two_partitions_match_the_sim_delivered_set():
    scenario = make_scenario("failover_bounce")
    reports, _ = asyncio.run(_run_partitions(scenario, [(0, 2), (1, 3)]))
    merged = merge_reports(scenario, reports, sanitize=False)
    sim = run_sim_scenario(make_scenario("failover_bounce"), seed=0, sanitize=False)
    assert merged["delivered"] == sim["delivered"]
    assert merged["gave_up"] == sim["gave_up"]
    assert merged["deliveries"] == sim["deliveries"]
    assert merged["in_flight"] == 0
    assert merged["published"] == scenario.publishes
    # The dead 1->3 link forces real recovery through the partition seam.
    assert merged["retransmissions"] > 0


def test_partition_reports_are_disjoint_by_node():
    scenario = make_scenario("failover_bounce")
    reports, publish_stripes = asyncio.run(
        _run_partitions(scenario, [(0, 2), (1, 3)])
    )
    assert reports[0]["nodes"] == [0, 2]
    assert reports[1]["nodes"] == [1, 3]
    # The subscriber (node 3) lives in partition 1: all deliveries and
    # delivered pairs must be recorded there and only there.
    assert reports[0]["deliveries"] == ()
    assert reports[0]["delivered"] == ()
    assert len(reports[1]["delivered"]) == scenario.publishes
    # Only the publisher's partition publishes, from its own stripe
    # (group min(0, 2) + 1) although the other partition shares its loop.
    assert reports[0]["published"] == scenario.publishes
    assert reports[1]["published"] == 0
    assert publish_stripes == {1}


# ---------------------------------------------------------------------------
# One partition hosting everything (sanitizer + report shape coverage)
# ---------------------------------------------------------------------------
async def _run_single_partition(scenario, seed=0):
    nodes = sorted(scenario.topology().nodes)
    config = _partition_configs(scenario, [tuple(nodes)])[0]
    runtime = PartitionRuntime(
        scenario, seed, nodes, config, sanitize=True, stripe_group=1
    )
    try:
        await runtime.start()
        publish_times = [
            0.05 + i * scenario.publish_interval
            for i in range(scenario.publishes)
        ]
        runtime.begin(time.time(), publish_times)
        deadline = asyncio.get_running_loop().time() + 10.0
        while asyncio.get_running_loop().time() < deadline:
            status = runtime.status()
            if status["done_publishing"] and status["in_flight"] == 0:
                break
            await asyncio.sleep(0.02)
        return runtime.report(), runtime.status()
    finally:
        await runtime.close()


def test_single_partition_is_sanitizer_clean_and_exports_ledgers():
    scenario = make_scenario("failover_bounce")
    report, status = asyncio.run(_run_single_partition(scenario))
    assert report["violations"] == 0
    assert report["timers_started"] == report["timers_settled"] > 0
    export = report["sanitizer"]
    assert export["transfers"], "partition export must carry transfer records"
    # Every exported transfer id sits in this partition's stripe.
    for tid, *_ in export["transfers"]:
        assert split_transfer_id(tid)[0] == 1
    assert status["activity"] > 0
    assert status["done_publishing"]


def test_single_partition_matches_the_single_process_live_run():
    """``run_live_scenario`` is a driver over one all-hosting partition:
    the fleet-style drive (publish times fixed up front, expectations at
    those times, merged report) and the in-process drive (the same
    absolute schedule from its own start, expectations at each actual
    publish, exact settle, harvest) reduce to the same facts."""
    scenario = make_scenario("failover_bounce")
    report, _ = asyncio.run(_run_single_partition(scenario))
    merged = merge_reports(scenario, [report], sanitize=True)
    live = run_live_scenario(make_scenario("failover_bounce"), seed=0)
    assert merged["delivered"] == live["delivered"]
    assert merged["gave_up"] == live["gave_up"]
    assert merged["deliveries"] == live["deliveries"]


def test_partition_requires_at_least_one_node():
    with pytest.raises(ConfigurationError, match="at least one node"):
        PartitionRuntime(make_scenario("clean"), 0, [])


def test_merged_report_shape_matches_harvest_contract():
    scenario = make_scenario("failover_bounce")
    report, _ = asyncio.run(_run_single_partition(scenario))
    merged = merge_reports(scenario, [report], sanitize=True)
    for key in (
        "scenario",
        "published",
        "expected",
        "delivered",
        "gave_up",
        "duplicates",
        "max_accepts_per_transfer",
        "deliveries",
        "delays",
        "retransmissions",
        "abandoned",
        "in_flight",
        "timers_started",
        "timers_settled",
        "violations",
        "conservation",
    ):
        assert key in merged, key
    assert merged["conservation"]["leaked"] == 0
    assert merged["conservation"]["delivered"] == len(merged["delivered"])


# ---------------------------------------------------------------------------
# A build that fails must not leak sockets (or observers: see conftest)
# ---------------------------------------------------------------------------
@pytest.fixture
def open_transports(monkeypatch):
    """The transports started and not yet closed, via counting shims."""
    opened = []
    start, close = LiveTransport.start, LiveTransport.close

    async def counted_start(self):
        opened.append(self)
        await start(self)

    async def counted_close(self):
        await close(self)
        if self in opened:
            opened.remove(self)

    monkeypatch.setattr(LiveTransport, "start", counted_start)
    monkeypatch.setattr(LiveTransport, "close", counted_close)
    return opened


_STRICT = (
    "error::ResourceWarning",
    # An unclosed socket warns from __del__, where the error is unraisable.
    "error::pytest.PytestUnraisableExceptionWarning",
)


@pytest.mark.filterwarnings(*_STRICT)
def test_failed_live_build_leaks_no_sockets(open_transports):
    """The stack is wired before any socket opens; a scenario the
    builder rejects must leave nothing listening or connected."""
    scenario = dataclasses.replace(make_scenario("clean"), ordering="bogus")
    with pytest.raises(ConfigurationError, match="bogus"):
        run_live_scenario(scenario)
    gc.collect()
    assert open_transports == []


@pytest.mark.filterwarnings(*_STRICT)
def test_broker_main_closes_a_partition_whose_start_failed(tmp_path, open_transports):
    """``runtime.start()`` sits inside the try/finally: a dial that fails
    after the local servers were bound still closes them."""
    scenario = make_scenario("failover_bounce")
    (port,) = allocate_ports(1)
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(scenario_to_dict(scenario)))
    peers_file = tmp_path / "peers.json"
    # Node 0 can bind, but its neighbours have no address to dial.
    peers_file.write_text(json.dumps({"0": ["127.0.0.1", port]}))
    args = argparse.Namespace(
        scenario=str(scenario_file),
        peers=str(peers_file),
        node_id=[0],
        seed=0,
        no_sanitize=False,
        trace=False,
        connect_timeout=1.0,
        settle_timeout=1.0,
        control="127.0.0.1:1",
    )
    with pytest.raises(SimulationError, match="no peer address"):
        asyncio.run(broker_main(args))
    gc.collect()
    assert open_transports == []
