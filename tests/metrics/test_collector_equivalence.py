"""The columnar collector against the dict-of-objects oracle it replaced.

Random interleavings of ``expect`` / ``record_delivery`` /
``record_give_up`` run against both collectors; they must agree exactly
(floats by bit pattern) on every return value and observer call, every
outcome row in row order, the counts and both delay lists. Row order is
part of the contract: ``np.mean`` over a permuted delay list can round
differently, which would move ``mean_delay``.
"""

from __future__ import annotations

import copy
from dataclasses import astuple
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import MetricsCollector
from repro.util.errors import SimulationError
from tests.metrics.reference_collector import MetricsCollector as ReferenceCollector

SUBSCRIBERS = st.integers(min_value=0, max_value=6)
MSG_IDS = st.integers(min_value=1, max_value=5)
TIMES = st.one_of(
    st.integers(min_value=0, max_value=2000).map(lambda i: i / 97),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
)
DEADLINES = st.one_of(
    st.integers(min_value=1, max_value=300).map(lambda i: i / 89),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    st.just(0.0),
)


@st.composite
def roster_pool(draw) -> List[Dict[int, float]]:
    """A base subscriber → deadline map, churned variants of it, and maybe
    a second topic's map (which a msg id may be expected with again)."""
    maps = st.dictionaries(SUBSCRIBERS, DEADLINES, min_size=1, max_size=5)
    pool = [draw(maps)]
    if draw(st.booleans()):
        pool.append(draw(maps))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        churned = dict(draw(st.sampled_from(pool)))
        kind = draw(st.sampled_from(["join", "leave", "deadline"]))
        subscriber = draw(SUBSCRIBERS)
        if kind == "leave" and len(churned) > 1:
            churned.pop(next(iter(churned)))
        else:
            churned[subscriber] = draw(DEADLINES)
        pool.append(churned)
    return pool


def operations(pool: List[Dict[int, float]]):
    # A copy or give-up targets a pair expected so far (an index into the
    # rows, resolved when it runs) or any (msg id, subscriber) at all —
    # unknown ids and subscribers included.
    known = sorted({s for deadlines in pool for s in deadlines})
    targets = st.one_of(
        st.tuples(st.just("row"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("raw"), MSG_IDS, st.one_of(st.sampled_from(known), SUBSCRIBERS)),
    )
    expect = st.tuples(
        st.just("expect"),
        MSG_IDS,
        st.integers(min_value=0, max_value=2),
        TIMES,
        st.integers(min_value=0, max_value=len(pool) - 1),
        # The shared map object, or a fresh dict with equal content (what
        # PubSubSystem.publish builds per call).
        st.booleans(),
    )
    deliver = st.tuples(
        st.just("deliver"),
        targets,
        TIMES,
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    )
    give_up = st.tuples(st.just("give_up"), targets)
    # Publishes first, then any interleaving (more publishes included).
    return st.tuples(
        st.lists(expect, min_size=1, max_size=6),
        st.lists(st.one_of(expect, deliver, deliver, give_up), max_size=40),
    ).map(lambda parts: parts[0] + parts[1])


def resolve(target, oracle: ReferenceCollector) -> Tuple[int, int]:
    if target[0] == "raw":
        return target[1], target[2]
    rows = oracle.outcomes()
    if not rows:
        return 1, 0
    row = rows[target[1] % len(rows)]
    return row.msg_id, row.subscriber


@st.composite
def scenarios(draw) -> Tuple[List[Dict[int, float]], list]:
    pool = draw(roster_pool())
    return pool, draw(operations(pool))


def bits(value):
    """Exact identity of a row value: floats by repr (sign of zero included)."""
    return repr(value) if isinstance(value, float) else value


def row_key(row) -> tuple:
    values = astuple(row) if hasattr(row, "__dataclass_fields__") else tuple(row)
    derived = (row.delivered, row.delay, row.on_time)
    return tuple(bits(v) for v in values + derived)


def assert_agree(table: MetricsCollector, oracle: ReferenceCollector) -> None:
    assert [row_key(r) for r in table.outcomes()] == [
        row_key(r) for r in oracle.outcomes()
    ]
    assert table.messages_published == oracle.messages_published
    assert table.expected_deliveries == oracle.expected_deliveries
    assert table.delivered_count() == oracle.delivered_count()
    assert table.on_time_count() == oracle.on_time_count()
    assert table.duplicate_count() == oracle.duplicate_count()
    assert [bits(d) for d in table.delays()] == [bits(d) for d in oracle.delays()]
    assert [bits(d) for d in table.late_normalized_delays()] == [
        bits(d) for d in oracle.late_normalized_delays()
    ]
    for row in oracle.outcomes():
        assert row_key(table.outcome(row.msg_id, row.subscriber)) == row_key(row)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_columnar_table_agrees_with_the_dict_of_objects_oracle(scenario):
    pool, ops = scenario
    table, oracle = MetricsCollector(), ReferenceCollector()
    table_calls: list = []
    oracle_calls: list = []
    table.add_observer(lambda *args: table_calls.append(tuple(map(bits, args))))
    oracle.add_observer(lambda *args: oracle_calls.append(tuple(map(bits, args))))
    contents = set()
    views = []
    for op in ops:
        if op[0] == "expect":
            _, msg_id, topic, publish_time, which, fresh = op
            deadlines = dict(pool[which]) if fresh else pool[which]
            try:
                table.expect(msg_id, topic, publish_time, deadlines)
            except SimulationError as error:
                # The oracle rejects the same call with the same message,
                # but may leave part of it registered: probe a copy.
                probe = copy.deepcopy(oracle)
                try:
                    probe.expect(msg_id, topic, publish_time, deadlines)
                except SimulationError as expected:
                    assert str(error) == str(expected)
                else:
                    raise AssertionError(f"only the table rejected {op}")
            else:
                oracle.expect(msg_id, topic, publish_time, deadlines)
                contents.add(tuple(deadlines.items()))
        elif op[0] == "deliver":
            _, target, time, hops = op
            msg_id, subscriber = resolve(target, oracle)
            assert table.record_delivery(
                msg_id, subscriber, time, hops
            ) == oracle.record_delivery(msg_id, subscriber, time, hops)
        else:
            msg_id, subscriber = resolve(op[1], oracle)
            table.record_give_up(msg_id, subscriber)
            oracle.record_give_up(msg_id, subscriber)
        assert table_calls == oracle_calls
        if len(views) < 3:
            views.append((table.outcomes(), oracle.outcomes()))
    assert_agree(table, oracle)
    # A view taken mid-run has its length fixed at that point and reads
    # the rows' current values, like the oracle's list of live objects.
    for table_view, oracle_list in views:
        assert len(table_view) == len(oracle_list)
        assert [row_key(r) for r in table_view] == [row_key(r) for r in oracle_list]
    # Equal maps share one roster, whether or not they are one object.
    assert len(table._rosters) == len(contents)
