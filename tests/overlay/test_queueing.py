"""Tests for the finite-capacity (queueing) link mode."""

import pytest

from repro.overlay.links import OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError
from tests.conftest import data_frame, make_topology


def make_network(service_time=None, queue_discipline="fifo"):
    topo = make_topology([(0, 1, 0.010), (1, 2, 0.010)])
    sim = Simulator()
    network = OverlayNetwork(
        sim,
        topo,
        RandomStreams(1),
        service_time=service_time,
        queue_discipline=queue_discipline,
    )
    return sim, network


def test_single_frame_pays_service_plus_propagation():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.send_data(0, 1, data_frame("a"))
    sim.run()
    assert arrivals == [pytest.approx(0.015)]


def test_a_queued_copy_is_left_to_the_queue_path():
    """A copy handed to an EDF server answers ``None``: the server, not
    the send, decides when it leaves."""
    for discipline in ("edf", "edf+drop"):
        sim, network = make_network(service_time=0.005, queue_discipline=discipline)
        network.attach(1, lambda s, f: None)
        network.attach(0, lambda s, f: None)
        network.send_data(0, 1, data_frame("a"))  # busies the direction
        assert network.send_data(0, 1, data_frame("b")) is None
        assert network.ack_round_trip(0, 1) is None


def test_a_fifo_copy_answers_like_an_unqueued_one():
    """FIFO knows a copy's wait at hand-over: the send reports the wait,
    then answers ``True`` — its compiled delivery is scheduled at
    ``now + (wait + d_fwd)`` — and the round trip is stated in advance."""
    sim, network = make_network(service_time=0.005)
    arrivals, waits = [], []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.attach(0, lambda s, f: None)
    assert network.watch_wire(lambda frame, wait: waits.append(wait))
    assert network.send_data(0, 1, data_frame("a")) is True
    assert network.send_data(0, 1, data_frame("b")) is True
    assert waits == [pytest.approx(0.005), pytest.approx(0.010)]
    assert network.ack_round_trip(0, 1) == (0.010, 0.010)
    sim.run()
    assert arrivals == [0.0 + (waits[0] + 0.010), 0.0 + (waits[1] + 0.010)]


def test_back_to_back_frames_queue_fifo():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f, sim.now)))
    network.send_data(0, 1, data_frame("a"))
    network.send_data(0, 1, data_frame("b"))
    network.send_data(0, 1, data_frame("c"))
    sim.run()
    assert arrivals == [
        (data_frame("a"), pytest.approx(0.015)),
        (data_frame("b"), pytest.approx(0.020)),
        (data_frame("c"), pytest.approx(0.025)),
    ]


def test_directions_are_independent_servers():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(("fwd", sim.now)))
    network.attach(0, lambda s, f: arrivals.append(("rev", sim.now)))
    network.send_data(0, 1, data_frame("a"))
    network.send_data(1, 0, data_frame("b"))
    sim.run()
    assert set(arrivals) == {("fwd", 0.015), ("rev", 0.015)}


def test_links_are_independent_servers():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.attach(2, lambda s, f: arrivals.append(sim.now))
    network.send_data(0, 1, data_frame("a"))
    network.send_data(1, 2, data_frame("b"))
    sim.run()
    assert arrivals == [pytest.approx(0.015), pytest.approx(0.015)]


def test_acks_skip_the_queue():
    sim, network = make_network(service_time=0.050)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f, sim.now)))
    network.send_data(0, 1, data_frame("big"))
    network.send_ack(0, 1, "ack")
    sim.run()
    assert ("ack", pytest.approx(0.010)) in [
        (f, pytest.approx(t)) for f, t in arrivals
    ]


def watched(network):
    """Wire waits the network reports to a ``watch_wire`` subscriber."""
    waits = []
    assert network.watch_wire(lambda frame, wait: waits.append(wait))
    return waits


def test_idle_link_has_no_backlog():
    sim, network = make_network(service_time=0.005)
    waits = watched(network)
    network.attach(1, lambda s, f: None)
    network.send_data(0, 1, data_frame("a"))
    # Nothing ahead of it: the copy clears the wire after its own service.
    assert waits == [0.005]


def test_backlog_reflects_queue_depth():
    sim, network = make_network(service_time=0.005)
    waits = watched(network)
    network.attach(1, lambda s, f: None)
    network.send_data(0, 1, data_frame("a"))
    network.send_data(0, 1, data_frame("b"))
    assert waits == [pytest.approx(0.005), pytest.approx(0.010)]


def test_infinite_capacity_reports_no_wire_wait():
    sim, network = make_network(service_time=None)
    assert network.watch_wire(lambda frame, wait: pytest.fail("never called")) is False
    network.attach(1, lambda s, f: None)
    network.send_data(0, 1, data_frame("a"))


def test_no_service_time_means_no_queueing():
    sim, network = make_network(service_time=None)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    for _ in range(5):
        network.send_data(0, 1, data_frame("x"))
    sim.run()
    assert all(t == pytest.approx(0.010) for t in arrivals)


def test_invalid_service_time_rejected():
    with pytest.raises(SimulationError):
        make_network(service_time=0.0)
