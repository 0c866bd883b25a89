"""Spec parsing and config/CLI validation of the ordering directive."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.ordering import LEVELS, OrderingSpec, parse_ordering
from repro.util.errors import ConfigurationError


# ---------------------------------------------------------------------------
# parse_ordering
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("level", LEVELS)
def test_bare_level_covers_every_topic(level):
    spec = parse_ordering(level)
    assert spec.level == level
    assert spec.topics is None
    assert spec.covers(0) and spec.covers(999)
    assert spec.describe() == level


def test_topic_list_restricts_coverage():
    spec = parse_ordering("fifo:2,5")
    assert spec.topics == frozenset({2, 5})
    assert spec.covers(2) and spec.covers(5)
    assert not spec.covers(0)
    assert spec.describe() == "fifo:2,5"


def test_whitespace_is_tolerated():
    assert parse_ordering("  causal : 1 , 3 ") == OrderingSpec(
        level="causal", topics=frozenset({1, 3})
    )


def test_unknown_level_names_the_valid_levels():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_ordering("lexicographic")
    message = str(excinfo.value)
    assert "lexicographic" in message
    for level in LEVELS:
        assert level in message


@pytest.mark.parametrize("text", ["", "   ", None, 7])
def test_non_string_or_empty_specs_are_rejected(text):
    with pytest.raises(ConfigurationError):
        parse_ordering(text)


@pytest.mark.parametrize("text", ["fifo:", "total:,", "causal:1,,2"])
def test_empty_topic_lists_are_rejected(text):
    with pytest.raises(ConfigurationError):
        parse_ordering(text)


def test_non_integer_topics_are_rejected():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_ordering("fifo:1,track-updates")
    assert "track-updates" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Eager validation through ExperimentConfig and the CLI
# ---------------------------------------------------------------------------
def test_config_accepts_valid_ordering():
    config = ExperimentConfig(ordering="causal:0")
    assert config.ordering == "causal:0"


def test_config_rejects_unknown_ordering_level_at_build_time():
    with pytest.raises(ConfigurationError) as excinfo:
        ExperimentConfig(ordering="alphabetical")
    message = str(excinfo.value)
    for level in LEVELS:
        assert level in message


def test_cli_threads_ordering_into_the_config():
    from repro.cli import _config_from, build_parser

    args = build_parser().parse_args(
        ["compare", "--ordering", "total:0", "--duration", "5"]
    )
    config = _config_from(args)
    assert config.ordering == "total:0"


def test_cli_rejects_unknown_ordering_level():
    from repro.cli import _config_from, build_parser

    args = build_parser().parse_args(["compare", "--ordering", "bogus"])
    with pytest.raises(ConfigurationError):
        _config_from(args)


def test_cli_perf_attributes_total_order_hold_time(capsys):
    from repro.cli import main

    argv = [
        "compare", "--strategies", "DCRD", "--duration", "6", "--nodes", "12",
        "--seed", "2", "--ordering", "total", "--perf",
    ]
    assert main(argv) == 0
    counters = {}
    for line in capsys.readouterr().out.split("Performance counters")[1].splitlines():
        cells = line.split()
        if len(cells) == 2 and cells[0].startswith("ordering."):
            counters[cells[0]] = float(cells[1])
    # Hold time by release reason, and the measured window behind it.
    assert counters["ordering.held_s.ready"] > 0.0
    assert counters["ordering.held_s.stall"] == 0.0  # stragglers are never held
    assert counters["ordering.held_s.flush"] >= 0.0
    # One transit sample per message and node (duplicates never sample).
    assert 0.0 < counters["ordering.window_samples"] <= counters["ordering.offers"]
    assert 0.0 < counters["ordering.window_s"] <= 2.0  # <= DEFAULT_STALL_TIMEOUT


# ---------------------------------------------------------------------------
# Layering (grep-enforced)
# ---------------------------------------------------------------------------
def test_one_delay_estimator_below_both_of_its_users():
    """The ordering layer, the estimator's one user, sizes its window with
    ``repro.util.rtt``, which lives below the protocol layers:
    ``repro.ordering`` imports nothing from them, and exactly one function
    under ``src/`` advances an ``srtt``/``rttvar`` pair."""
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    above = re.compile(r"^\s*(from|import) repro\.(extensions|core|overlay)\b")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted((src / "ordering").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if above.search(line)
    ]
    assert not offenders, offenders
    update = re.compile(r"\.(srtt|rttvar)\s*=(?!=)")
    updaters = {
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if any(update.search(line) for line in path.read_text().splitlines())
    }
    assert updaters == {"util/rtt.py"}
