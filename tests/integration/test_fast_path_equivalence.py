"""Bit-identical equivalence pins for the data-plane fast path.

The fast path (tuple-keyed kernel heap with tombstone compaction,
``schedule_fire`` deliveries, frame fast copies, hot-loop caches in the
overlay/broker/ARQ/forwarding layers) is a pure performance change: every
run must produce *exactly* the trace the pre-change code produced — same
event interleaving, same RNG draw order, same per-message outcomes.

``data/fast_path_reference.json`` holds per-run fingerprints: summary
counters, ``processed_events`` (a proxy for the exact event schedule), and
an MD5 digest over every ``(msg_id, subscriber, delivery_time, gave_up)``
outcome row. These cells cover both strategy families (DCRD
reroute/give-up logic and tree forwarding) and both link disciplines (FIFO
and EDF with expired drops), across two seeds each.

The two halves of the file have different ages. The infinite-capacity half
(``baseline/*``, 4 entries, 16 cells) is still the recording made at the
commit immediately before the fast path landed, byte for byte, except
``baseline/DCRD/seed2``: two of its 39 ``<d, r>`` tables sat in a limit
cycle under lock-step rounds and shipped whichever phase the round bound
landed on, and were re-recorded once when the solver's Gauss-Seidel
sweeps and exit rule made every table converge (3 fewer DATA
transmissions, 5 fewer events, the same deliveries). The
finite-capacity half (``edf_storm/DCRD``, ``edf_load/P-DTree``, 4 entries,
16 cells) was re-recorded once, from a plain run, when the ACK clock moved
to the wire (PR 19): the old recording pinned the retransmission storm that
change removed — every copy timed out in its sender's own queue — and
``edf_storm`` was lengthened from 2 s to 15 s so that, without the storm,
the cell still pins a few thousand events of EDF/DCRD schedule.

Two more cells (``lossy/ORACLE``, ``node_crash/DCRD``, 2 entries each)
reach what the matrix above does not, and were recorded from a plain run
at the commit before the generic ``transmit`` was folded into the two
kind-specific sends: ORACLE's ``reliable`` sends (5 % random loss that
its copies must never draw), and the node-crash checks at send time and
at arrival (``node_failure_probability`` over 0.1 s epochs, so copies in
flight across an epoch boundary find their receiver down).

The last cell (``fifo_queue/DCRD``, 2 entries) pins the FIFO queueing path
of a lossy, failing world with ``m = 2``: copies wait behind each other,
latent ACK timeouts materialise when an ACK is lost, and retransmissions
queue. It was recorded from a plain run at the commit before latent
timeouts and ACKs settled at send were extended to FIFO links.

The ordered cell (``ordered_lossy/DCRD``, 2 entries) pins a ``total``
hold-back run on a lossy, failing world with ``m = 2``: lost ACKs make
senders fail over to a second neighbour, so a subscriber's pipeline is
offered late duplicate copies of messages it already released. The run
lasts over three message horizons (:func:`repro.stack.message_horizon`,
about 37 s here), so the released-id generations really retire. Besides
the usual fields it pins ``ordering.releases`` and
``ordering.stall_releases``: a late duplicate that found no id and was
misread as a stall would move only those. It was recorded from a plain
run at the commit before the horizon bounded the pipelines' released ids
and the plan's stamp cache.

A second test pins that compaction is invisible *within* the current code:
it merely reaps entries that could never fire, so forcing it on every
cancel or switching it off (patching the engine's private rule) must not
change a single outcome.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.sim import engine

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "fast_path_reference.json").read_text()
)

CONFIGS = {
    "baseline": dict(
        topology_kind="regular",
        degree=5,
        num_nodes=20,
        num_topics=6,
        failure_probability=0.06,
        duration=15.0,
        drain=5.0,
    ),
    "edf_storm": dict(
        topology_kind="regular",
        degree=5,
        num_nodes=20,
        num_topics=6,
        failure_probability=0.03,
        duration=15.0,
        drain=2.0,
        link_service_time=0.02,
        queue_discipline="edf+drop",
        deadline_factor_choices=(4.0, 16.0),
    ),
    "edf_load": dict(
        topology_kind="regular",
        degree=5,
        num_nodes=20,
        num_topics=6,
        failure_probability=0.03,
        duration=15.0,
        drain=5.0,
        publish_interval=0.0625,
        link_service_time=0.05,
        queue_discipline="edf+drop",
        deadline_factor_choices=(4.0, 16.0),
    ),
}
CONFIGS["lossy"] = dict(CONFIGS["baseline"], loss_rate=0.05)
CONFIGS["node_crash"] = dict(
    CONFIGS["baseline"],
    node_failure_probability=0.03,
    loss_rate=0.01,
    failure_epoch=0.1,
)
CONFIGS["fifo_queue"] = dict(
    CONFIGS["baseline"],
    loss_rate=0.03,
    m=2,
    publish_interval=0.25,
    link_service_time=0.02,
)
CONFIGS["ordered_lossy"] = dict(
    CONFIGS["baseline"],
    loss_rate=0.05,
    failure_probability=0.1,
    m=2,
    ordering="total",
    duration=120.0,
)

CELLS = [
    ("baseline", "DCRD"),
    ("baseline", "D-Tree"),
    ("edf_storm", "DCRD"),
    ("edf_load", "P-DTree"),
    ("lossy", "ORACLE"),
    ("node_crash", "DCRD"),
    ("fifo_queue", "DCRD"),
    ("ordered_lossy", "DCRD"),
]


def _run(config_name: str, strategy: str, seed: int, **overrides):
    """Execute one cell; returns the environment (post-run) and its summary."""
    config = ExperimentConfig(**CONFIGS[config_name]).with_updates(**overrides)
    env = build_environment(config, strategy, seed)
    return env, env.execute()


def _digest(env, summary) -> dict:
    """Compress one executed cell's full trace into comparable scalars."""
    outcomes = sorted(
        (o.msg_id, o.subscriber, repr(o.delivery_time), o.gave_up)
        for o in env.ctx.metrics.outcomes()
    )
    digest = hashlib.md5(
        "|".join(",".join(map(str, row)) for row in outcomes).encode()
    ).hexdigest()
    fields = dict(
        delivered=summary.delivered,
        on_time=summary.on_time,
        duplicates=summary.duplicates,
        data_transmissions=summary.data_transmissions,
        give_ups=sum(1 for o in env.ctx.metrics.outcomes() if o.gave_up),
        dropped_expired=sum(env.ctx.network.stats.dropped_expired.values()),
        processed_events=env.ctx.sim.processed_events,
        outcome_digest=digest,
    )
    if "ordering.releases" in summary.perf:
        for counter in ("releases", "stall_releases"):
            fields[f"ordering_{counter}"] = int(summary.perf[f"ordering.{counter}"])
    return fields


#: The four observation modes every cell must be bit-identical in. The
#: probe bus compiles its slots to None (plain) or the run record's bound
#: handlers — checking, tracing or both — none of which may perturb the
#: run.
MODES = {
    "plain": dict(),
    "sanitized": dict(sanitize=True),
    "traced": dict(trace=True),
    "sanitized+traced": dict(sanitize=True, trace=True),
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config_name,strategy", CELLS)
def test_matches_pre_fast_path_reference(config_name, strategy, seed, mode):
    """Every cell reproduces the recorded trace exactly, in all
    four observation modes: the probe bus is observation-only, so a
    sanitized and/or traced run pops the same event interleaving, draws
    the same RNG sequence and produces the same per-message outcomes —
    only sanity.*/trace.* perf counters differ, and the digest excludes
    perf."""
    env, summary = _run(config_name, strategy, seed, **MODES[mode])
    if "traced" in mode:
        assert env.record is not None and env.record.trace
        assert env.record.events_recorded > 0
    if "sanitized" in mode:
        assert env.record is not None and env.record.sanitize
        assert env.record.events_popped > 0
    got = _digest(env, summary)
    want = REFERENCE[f"{config_name}/{strategy}/seed{seed}"]
    assert got == want


def test_compaction_forced_and_off_trace_identically(monkeypatch):
    """Compaction forced on every cancel vs switched off: bit-identical runs.

    The default rule rarely trips on a 20-node world, so the "forced"
    side drops it to the floor — every cancelled ACK timer triggers a
    heap rebuild — while the "off" side never compacts and falls back to
    pure lazy deletion. Both must pop the same live events in the same
    order, and both must match the pre-change reference.
    """
    monkeypatch.setattr(engine, "_COMPACTION_MIN", 1)
    monkeypatch.setattr(engine, "_COMPACTION_SHARE", 0.01)
    env, summary = _run("baseline", "DCRD", 1)
    assert env.ctx.sim.heap_compactions > 0
    aggressive = _digest(env, summary)
    assert aggressive == REFERENCE["baseline/DCRD/seed1"]

    monkeypatch.setattr(engine, "_COMPACTION_MIN", math.inf)
    monkeypatch.setattr(engine, "_COMPACTION_SHARE", 0.5)
    env, summary = _run("baseline", "DCRD", 1)
    assert env.ctx.sim.heap_compactions == 0
    assert _digest(env, summary) == aggressive
