"""Round-trip tests for serialized scenarios and their drop rules.

A multi-process run ships the scenario — fault script included — to every
broker process as JSON; each process, and the sim side of the differential
suite, adapts the same specs through ``link_filter``. If the rules did not
survive the round trip bit-exact, each process would face a *different*
adversary and the conformance matrix would be comparing different worlds.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.live.faults import (
    ACK,
    DATA,
    DropRule,
    ack_loss_rules,
    dead_link_rules,
    link_filter,
)
from repro.live.scenarios import (
    SCENARIO_KINDS,
    Scenario,
    make_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.overlay.links import FrameKind
from repro.util.errors import ConfigurationError

_dst = st.one_of(st.none(), st.integers(min_value=0, max_value=9))
_kind = st.sampled_from([None, DATA, ACK])
# A count-bounded rule must name its src.
rule_strategy = st.one_of(
    st.builds(DropRule, src=st.none(), dst=_dst, kind=_kind, count=st.none()),
    st.builds(
        DropRule,
        src=st.integers(min_value=0, max_value=9),
        dst=_dst,
        kind=_kind,
        count=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    ),
)


# ---------------------------------------------------------------------------
# DropRule round trip
# ---------------------------------------------------------------------------
@given(rule=rule_strategy)
def test_drop_rule_round_trips_through_json(rule):
    rebuilt = DropRule.from_dict(json.loads(json.dumps(rule.to_dict())))
    assert (rebuilt.src, rebuilt.dst, rebuilt.kind, rebuilt.count) == (
        rule.src,
        rule.dst,
        rule.kind,
        rule.count,
    )
    # State never travels: a deserialized rule has a fresh drop budget.
    assert rebuilt.dropped == 0


def test_drop_rule_state_is_not_serialized():
    rule = DropRule(src=1, dst=3, count=2)
    rule.consume()
    assert rule.dropped == 1
    assert "dropped" not in rule.to_dict()
    assert DropRule.from_dict(rule.to_dict()).dropped == 0


def test_drop_rule_unknown_field_rejected():
    with pytest.raises(ConfigurationError, match="unknown DropRule"):
        DropRule.from_dict({"src": 0, "burst": 3})


def test_drop_rule_invalid_values_rejected_on_rebuild():
    with pytest.raises(ConfigurationError, match="kind"):
        DropRule.from_dict({"kind": "probe"})
    with pytest.raises(ConfigurationError, match="count"):
        DropRule.from_dict({"count": 0})


@given(rule=rule_strategy, frames=st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.sampled_from([DATA, ACK]),
    ),
    max_size=20,
))
def test_rebuilt_rules_drop_the_identical_frame_sequence(rule, frames):
    """The sim-side contract: serialized rules make the same decisions."""
    original = DropRule.from_dict(rule.to_dict())
    rebuilt = DropRule.from_dict(json.loads(json.dumps(rule.to_dict())))
    for src, dst, kind in frames:
        a = original.matches(src, dst, kind)
        b = rebuilt.matches(src, dst, kind)
        assert a == b
        if a:
            original.consume()
            rebuilt.consume()
    assert original.dropped == rebuilt.dropped


# ---------------------------------------------------------------------------
# Scenario round trip
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_scenario_round_trips_through_json(kind):
    scenario = make_scenario(kind)
    data = json.loads(json.dumps(scenario_to_dict(scenario)))
    rebuilt = scenario_from_dict(data)
    assert rebuilt.name == scenario.name
    assert tuple(rebuilt.edges) == tuple(
        tuple(edge) for edge in scenario.edges
    )
    assert rebuilt.publisher == scenario.publisher
    assert tuple(rebuilt.subscribers) == tuple(
        tuple(sub) for sub in scenario.subscribers
    )
    assert rebuilt.publishes == scenario.publishes
    assert rebuilt.m == scenario.m
    assert [r.to_dict() for r in rebuilt.rules()] == [
        r.to_dict() for r in scenario.rules()
    ]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_rebuilt_rules_callable_returns_fresh_state(kind):
    rebuilt = scenario_from_dict(scenario_to_dict(make_scenario(kind)))
    first = rebuilt.rules()
    for rule in first:
        if rule.matches(rule.src or 0, rule.dst or 0, rule.kind or DATA):
            rule.consume()
    # A second call must not see the first call's consumed budgets.
    assert all(rule.dropped == 0 for rule in rebuilt.rules())


def test_scenario_with_only_the_required_keys_takes_the_dataclass_defaults():
    required = [
        field.name
        for field in dataclasses.fields(Scenario)
        if field.default is dataclasses.MISSING
    ]
    assert required == ["name", "edges", "publisher", "subscribers"]
    full = scenario_to_dict(make_scenario("clean"))
    rebuilt = scenario_from_dict(json.loads(json.dumps({key: full[key] for key in required})))
    assert rebuilt.rules() == ()
    for field in dataclasses.fields(Scenario):
        if field.name not in required and field.name != "rules":
            assert getattr(rebuilt, field.name) == field.default, field.name
    assert rebuilt.edges == tuple(tuple(edge) for edge in full["edges"])


def test_scenario_unknown_field_rejected():
    data = scenario_to_dict(make_scenario("clean"))
    data["chaos"] = True
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        scenario_from_dict(data)


def test_scenario_bad_rule_spec_rejected_eagerly():
    data = scenario_to_dict(make_scenario("link_loss"))
    data["rules"][0]["kind"] = "probe"
    with pytest.raises(ConfigurationError, match="kind"):
        scenario_from_dict(data)


def test_link_filter_from_deserialized_rules_matches_original():
    """The same serialized adversary, applied at the sim seam."""
    for rules in (dead_link_rules(0, 3), ack_loss_rules(3, 0)):
        specs = [rule.to_dict() for rule in rules]
        original = link_filter([DropRule.from_dict(s) for s in specs])
        rebuilt = link_filter(
            [DropRule.from_dict(json.loads(json.dumps(s))) for s in specs]
        )
        for src, dst, kind in [
            (0, 3, FrameKind.DATA),
            (3, 0, FrameKind.ACK),
            (1, 2, FrameKind.DATA),
        ]:
            assert original(src, dst, kind, None) == rebuilt(src, dst, kind, None)
