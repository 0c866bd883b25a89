"""Golden pin of the live diamond-failover run, time-quantized.

The wall-clock twin of ``test_golden_trace.py``: the same diamond world
(fast route 0-1-3 dead, §III-D bounce, redelivery over 0-2-3) runs over
real asyncio TCP sockets with imposed link delays of 0.1 s / 0.2 s, and
its normalized frame trace is pinned as JSONL in
``data/live_golden_trace.jsonl``.

Wall-clock runs cannot be pinned byte-exact, so the normalization makes
the trace deterministic instead:

* timestamps are quantized to 0.1 s buckets. Every event in this world
  is due **on** a bucket multiple (link delays 0.1/0.2, ACK timeout
  3·0.1 + 0.1 = 0.4) and wall-clock timers only ever fire *late*, so the
  bucket is ``floor((t + EARLY_MARGIN) / QUANTUM)``: 10 ms of grace for
  clock-read noise below the multiple, 90 ms for a stalled host above it
  (round-to-nearest would spend half the bucket on earliness that never
  happens);
* events are reduced to ``{"q", "kind", "node", "peer", "msg",
  "transfer"}`` and sorted by that tuple — causal order within a bucket
  is not pinned, arrival order across sockets is not pinned, but the
  *set* of lifecycle events per bucket is;
* message/transfer ids are reproducible because every run counts them
  from 1 in its own context and the scenario is a single causal chain.

The same world is also pinned on the **multi-process** substrate
(``data/live_multiproc_golden_trace.jsonl``): two broker OS processes
(nodes {0, 2} and {1, 3}), the same 0.1 s buckets, with two extra
normalization steps — timestamps are taken relative to the scheduled
first-publish instant (the fleet synchronizes on a start epoch, so the
publish happens at ``START_DELAY``, not 0), and the striped transfer ids
are decomposed into ``(group, seq)`` so the per-process allocation
stripes pin stably.

Regenerate after a reviewed behavioural change with::

    PYTHONPATH=src:. python -c "
    from tests.integration.test_live_golden import write_live_golden; write_live_golden()"
    PYTHONPATH=src:. python -c "
    from tests.integration.test_live_golden import write_multiproc_golden; write_multiproc_golden()"
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.live.broker import split_transfer_id
from repro.live.cluster import START_DELAY, run_cluster_scenario
from repro.live.faults import dead_link_rules
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import Scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "live_golden_trace.jsonl"
MULTIPROC_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "live_multiproc_golden_trace.jsonl"
)

#: Quantization bucket width; all imposed delays are multiples of it.
QUANTUM = 0.1
#: How far below its bucket multiple an event may read and still land in it.
EARLY_MARGIN = 0.010


def bucket(t: float) -> int:
    """The bucket of an event observed at *t* (late by < 90 ms, never early)."""
    return math.floor((t + EARLY_MARGIN) / QUANTUM)

#: Frame-lifecycle kinds the pin covers (timer/bookkeeping families have
#: substrate-specific tokens and are exercised elsewhere).
PINNED_KINDS = frozenset(
    {
        "publish",
        "transmit",
        "link_drop",
        "arrive",
        "dedup_discard",
        "deliver",
        "ack",
        "ack_timeout",
        "failover",
        "bounce",
    }
)


def golden_scenario() -> Scenario:
    """The diamond failover world with bucket-aligned timings."""
    return Scenario(
        name="live_golden",
        edges=((0, 1, 0.1), (1, 3, 0.1), (0, 2, 0.2), (2, 3, 0.2)),
        publisher=0,
        subscribers=((3, 10.0),),
        rules=lambda: dead_link_rules(1, 3),
        publishes=1,
        m=1,
        ack_timeout_factor=3.0,
        ack_timeout_slack=0.1,  # timeout = 3*0.1 + 0.1 = 0.4 = 4 buckets
    )


def normalize(trace_rows):
    """Reduce a live trace to its deterministic, quantized skeleton."""
    rows = []
    for t, kind, msg, transfer, node, peer in trace_rows:
        if kind not in PINNED_KINDS:
            continue
        rows.append(
            {
                "q": bucket(t),
                "kind": kind,
                "node": -1 if node is None else node,
                "peer": -1 if peer is None else peer,
                "msg": -1 if msg is None else msg,
                "transfer": -1 if transfer is None else transfer,
            }
        )
    rows.sort(
        key=lambda r: (r["q"], r["kind"], r["node"], r["peer"], r["msg"], r["transfer"])
    )
    return rows


def traced_live_run():
    return run_live_scenario(golden_scenario(), seed=0, sanitize=True, trace=True)


def render(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_live_golden() -> None:  # pragma: no cover - regeneration helper
    result = traced_live_run()
    GOLDEN_PATH.write_text(render(normalize(result["trace"])), encoding="utf-8")


def normalize_multiproc(rows):
    """Quantize a merged cluster trace into the same deterministic form.

    Two extra steps versus :func:`normalize`: timestamps are re-based on
    the scheduled first-publish instant (``START_DELAY`` after the fleet
    epoch), and striped transfer ids are decomposed into ``(tg, ts)`` —
    the process stripe group and the in-group sequence — because the raw
    40-bit-shifted ids would make the pin unreadable and would change if
    the stripe width ever did.
    """
    out = []
    for t, kind, msg, transfer, node, peer in rows:
        if kind not in PINNED_KINDS:
            continue
        group, seq = (0, -1) if transfer is None else split_transfer_id(transfer)
        out.append(
            {
                "q": bucket(t - START_DELAY),
                "kind": kind,
                "node": -1 if node is None else node,
                "peer": -1 if peer is None else peer,
                "msg": -1 if msg is None else msg,
                "tg": group,
                "ts": seq,
            }
        )
    out.sort(
        key=lambda r: (
            r["q"], r["kind"], r["node"], r["peer"], r["msg"], r["tg"], r["ts"],
        )
    )
    return out


def traced_multiproc_run():
    return run_cluster_scenario(
        golden_scenario(), seed=0, sanitize=True, processes=2, trace=True
    )


def write_multiproc_golden() -> None:  # pragma: no cover - regeneration helper
    result = traced_multiproc_run()
    MULTIPROC_GOLDEN_PATH.write_text(
        render(normalize_multiproc(result["trace"])), encoding="utf-8"
    )


def test_live_trace_matches_pinned_quantized_jsonl():
    result = traced_live_run()
    assert result["violations"] == 0
    assert render(normalize(result["trace"])) == GOLDEN_PATH.read_text(encoding="utf-8")


def test_live_golden_exercises_the_full_recovery_sequence():
    result = traced_live_run()
    kinds = [kind for _, kind, *_ in result["trace"]]
    # The §III-D chain: drop on the dead link, budget exhausted, failover,
    # bounce upstream, redelivery over the slow branch.
    for kind in ("link_drop", "ack_timeout", "failover", "bounce", "deliver"):
        assert kind in kinds, kind
    assert result["delivered"] == frozenset({(1, 3)})
    # The delivery happens ~1.0 s in (0.1 publish hop + 0.4 timeout +
    # bounce and slow-branch hops); quantization must put it at bucket 10.
    deliver_t = next(t for t, kind, *_ in result["trace"] if kind == "deliver")
    assert bucket(deliver_t) == 10


def test_multiproc_trace_matches_pinned_quantized_jsonl():
    result = traced_multiproc_run()
    assert result["violations"] == 0
    assert result["conservation"]["leaked"] == 0
    rendered = render(normalize_multiproc(result["trace"]))
    assert rendered == MULTIPROC_GOLDEN_PATH.read_text(encoding="utf-8")


def test_multiproc_golden_projects_onto_the_single_process_pin():
    """Strip the transfer ids and the two pins describe the same run.

    Transfer ids cannot match across substrates — the fleet stripes them
    per process while the single-process run numbers them globally — but
    the quantized ``(q, kind, node, peer, msg)`` event multiset must be
    identical: same publish, same drops on the dead link, same timeout /
    failover / bounce chain, same bucket-10 delivery over the slow branch.
    """
    def project(rows):
        return sorted(
            (r["q"], r["kind"], r["node"], r["peer"], r["msg"]) for r in rows
        )

    single = [json.loads(line) for line in
              GOLDEN_PATH.read_text(encoding="utf-8").splitlines()]
    multi = [json.loads(line) for line in
             MULTIPROC_GOLDEN_PATH.read_text(encoding="utf-8").splitlines()]
    assert project(multi) == project(single)
    # The striping itself is visible in the pin: node 0's partition
    # allocates in stripe 1, node 1's in stripe 2.
    groups = {r["tg"] for r in multi if r["tg"] > 0}
    assert groups == {1, 2}
