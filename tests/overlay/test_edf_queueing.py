"""Tests for the EDF link queue discipline."""

import itertools

import pytest

from repro.overlay.links import OverlayNetwork
from repro.pubsub.messages import PacketFrame
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError
from tests.conftest import make_topology

_transfer_ids = itertools.count(1)


def frame_with_priority(priority, msg_id=1):
    return PacketFrame.fresh(
        msg_id=msg_id,
        transfer_id=next(_transfer_ids),
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({1}),
        priority=priority,
    )


def make_network(discipline="edf", service_time=0.010):
    topo = make_topology([(0, 1, 0.010)])
    sim = Simulator()
    network = OverlayNetwork(
        sim,
        topo,
        RandomStreams(1),
        service_time=service_time,
        queue_discipline=discipline,
    )
    return sim, network


def test_urgent_frame_overtakes_queued_frames():
    sim, network = make_network()
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f.msg_id, sim.now)))
    # The first frame starts service immediately; while it serialises,
    # a low-priority and then a high-priority frame arrive.
    network.send_data(0, 1, frame_with_priority(5.0, msg_id=1))
    network.send_data(0, 1, frame_with_priority(9.0, msg_id=2))
    network.send_data(0, 1, frame_with_priority(1.0, msg_id=3))
    sim.run()
    order = [msg for msg, _ in arrivals]
    assert order == [1, 3, 2]  # in-service first, then by deadline


def test_equal_priorities_serve_fifo():
    sim, network = make_network()
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(f.msg_id))
    for msg_id in (1, 2, 3):
        network.send_data(0, 1, frame_with_priority(5.0, msg_id=msg_id))
    sim.run()
    assert arrivals == [1, 2, 3]


def test_service_and_propagation_times_accumulate():
    sim, network = make_network(service_time=0.010)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.send_data(0, 1, frame_with_priority(1.0, msg_id=1))
    network.send_data(0, 1, frame_with_priority(2.0, msg_id=2))
    sim.run()
    assert arrivals == [pytest.approx(0.020), pytest.approx(0.030)]


def test_server_idles_and_resumes():
    sim, network = make_network()
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(sim.now))
    network.send_data(0, 1, frame_with_priority(1.0, msg_id=1))
    sim.schedule(1.0, network.send_data, 0, 1, frame_with_priority(1.0, msg_id=2))
    sim.run()
    assert arrivals == [pytest.approx(0.020), pytest.approx(1.020)]


def test_acks_bypass_edf_queue():
    sim, network = make_network(service_time=0.050)
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append((f, sim.now)))
    network.send_data(0, 1, frame_with_priority(1.0))
    network.send_ack(0, 1, "ack")
    sim.run()
    assert ("ack", pytest.approx(0.010)) in [(f, pytest.approx(t)) for f, t in arrivals]


def test_backlog_accounts_for_queue():
    sim, network = make_network(service_time=0.010)
    network.attach(1, lambda s, f: None)
    clears = []
    assert network.watch_wire(
        lambda frame, wait: clears.append((frame.msg_id, sim.now + wait))
    )
    network.send_data(0, 1, frame_with_priority(1.0, msg_id=1))
    network.send_data(0, 1, frame_with_priority(2.0, msg_id=2))
    # The server reports a copy when it picks it: the queued one only
    # once the first has been served.
    assert clears == [(1, pytest.approx(0.010))]
    sim.run()
    assert clears == [(1, pytest.approx(0.010)), (2, pytest.approx(0.020))]


def test_unknown_discipline_rejected():
    with pytest.raises(SimulationError):
        make_network(discipline="lifo")


def test_priorityless_frames_fall_to_back():
    sim, network = make_network()
    arrivals = []
    network.attach(1, lambda s, f: arrivals.append(f.msg_id))
    network.send_data(0, 1, frame_with_priority(1.0, msg_id=1))
    network.send_data(0, 1, frame_with_priority(float("inf"), msg_id=2))
    network.send_data(0, 1, frame_with_priority(3.0, msg_id=3))
    sim.run()
    assert arrivals == [1, 3, 2]
