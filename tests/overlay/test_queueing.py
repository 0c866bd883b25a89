"""Tests for the finite-capacity (queueing) link mode."""

import pytest

from repro.overlay.links import FrameKind, OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError
from tests.conftest import make_topology


def make_network(service_time=None):
    topo = make_topology([(0, 1, 0.010), (1, 2, 0.010)])
    sim = Simulator()
    network = OverlayNetwork(sim, topo, RandomStreams(1), service_time=service_time)
    return sim, network


def test_single_frame_pays_service_plus_propagation():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.transmit(0, 1, "a", FrameKind.DATA)
    sim.run()
    assert arrivals == [pytest.approx(0.015)]


def test_back_to_back_frames_queue_fifo():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f, sim.now)))
    network.transmit(0, 1, "a", FrameKind.DATA)
    network.transmit(0, 1, "b", FrameKind.DATA)
    network.transmit(0, 1, "c", FrameKind.DATA)
    sim.run()
    assert arrivals == [
        ("a", pytest.approx(0.015)),
        ("b", pytest.approx(0.020)),
        ("c", pytest.approx(0.025)),
    ]


def test_directions_are_independent_servers():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(("fwd", sim.now)))
    network.attach(0, lambda s, f: arrivals.append(("rev", sim.now)))
    network.transmit(0, 1, "a", FrameKind.DATA)
    network.transmit(1, 0, "b", FrameKind.DATA)
    sim.run()
    assert set(arrivals) == {("fwd", 0.015), ("rev", 0.015)}


def test_links_are_independent_servers():
    sim, network = make_network(service_time=0.005)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.attach(2, lambda s, f: arrivals.append(sim.now))
    network.transmit(0, 1, "a", FrameKind.DATA)
    network.transmit(1, 2, "b", FrameKind.DATA)
    sim.run()
    assert arrivals == [pytest.approx(0.015), pytest.approx(0.015)]


def test_acks_skip_the_queue():
    sim, network = make_network(service_time=0.050)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f, sim.now)))
    network.transmit(0, 1, "big", FrameKind.DATA)
    network.transmit(0, 1, "ack", FrameKind.ACK)
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
    network.transmit(0, 1, "a", FrameKind.DATA)
    # Nothing ahead of it: the copy clears the wire after its own service.
    assert waits == [0.005]


def test_backlog_reflects_queue_depth():
    sim, network = make_network(service_time=0.005)
    waits = watched(network)
    network.attach(1, lambda s, f: None)
    network.transmit(0, 1, "a", FrameKind.DATA)
    network.transmit(0, 1, "b", FrameKind.DATA)
    assert waits == [pytest.approx(0.005), pytest.approx(0.010)]


def test_infinite_capacity_reports_no_wire_wait():
    sim, network = make_network(service_time=None)
    assert network.watch_wire(lambda frame, wait: pytest.fail("never called")) is False
    network.attach(1, lambda s, f: None)
    network.transmit(0, 1, "a", FrameKind.DATA)


def test_no_service_time_means_no_queueing():
    sim, network = make_network(service_time=None)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    for _ in range(5):
        network.transmit(0, 1, "x", FrameKind.DATA)
    sim.run()
    assert all(t == pytest.approx(0.010) for t in arrivals)


def test_invalid_service_time_rejected():
    with pytest.raises(SimulationError):
        make_network(service_time=0.0)
