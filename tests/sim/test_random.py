"""Unit tests for named random streams."""

from itertools import islice

import pytest

from repro.sim.random import DRAW_BLOCK, RandomStreams
from repro.util.errors import SimulationError


def test_same_seed_and_name_reproduces_sequence():
    a = RandomStreams(seed=42).get("loss").random(10)
    b = RandomStreams(seed=42).get("loss").random(10)
    assert (a == b).all()


def test_different_names_give_independent_streams():
    streams = RandomStreams(seed=42)
    a = streams.get("loss").random(10)
    b = streams.get("topology").random(10)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("loss").random(10)
    b = RandomStreams(seed=2).get("loss").random(10)
    assert not (a == b).all()


def test_get_returns_same_stateful_generator():
    streams = RandomStreams(seed=7)
    assert streams.get("x") is streams.get("x")


def test_stream_statefulness_shared_by_name():
    streams = RandomStreams(seed=7)
    first = streams.get("x").random()
    second = streams.get("x").random()
    assert first != second  # the stream advanced


def test_fork_derives_independent_family():
    base = RandomStreams(seed=3)
    fork_a = base.fork(0)
    fork_b = base.fork(1)
    assert fork_a.seed != fork_b.seed
    a = fork_a.get("loss").random(5)
    b = fork_b.get("loss").random(5)
    assert not (a == b).all()


def test_fork_is_deterministic():
    a = RandomStreams(seed=3).fork(5).get("w").random(4)
    b = RandomStreams(seed=3).fork(5).get("w").random(4)
    assert (a == b).all()


def test_seed_property():
    assert RandomStreams(seed=11).seed == 11


def test_uniform_draws_equal_scalar_draws_across_blocks():
    count = 2 * DRAW_BLOCK + 5  # crosses two block boundaries
    drawn = list(islice(RandomStreams(seed=9).uniform_draws("loss"), count))
    scalar = RandomStreams(seed=9).get("loss")
    expected = [scalar.random() for _ in range(count)]
    assert drawn == expected  # exact: the same floats, not approximately
    assert all(type(value) is float for value in drawn)


def test_block_read_stream_has_no_second_reader():
    streams = RandomStreams(seed=9)
    streams.uniform_draws("loss")
    with pytest.raises(SimulationError):
        streams.get("loss")
    with pytest.raises(SimulationError):
        streams.uniform_draws("loss")
    streams.get("topology")  # other streams are unaffected


def test_scalar_read_stream_cannot_be_block_read():
    streams = RandomStreams(seed=9)
    streams.get("loss").random()
    with pytest.raises(SimulationError):
        streams.uniform_draws("loss")
