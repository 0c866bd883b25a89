"""Unit tests for the overlay data plane."""

from types import SimpleNamespace

import pytest

from repro.overlay.failures import NodeFailureSchedule
from repro.overlay.links import FrameKind, OverlayNetwork
from repro.overlay.topology import full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError
from tests.conftest import ScriptedFailures, data_frame, make_topology


def make_network(topology, loss_rate=0.0, failures=None, node_failures=None, seed=1):
    sim = Simulator()
    network = OverlayNetwork(
        sim,
        topology,
        RandomStreams(seed),
        loss_rate=loss_rate,
        failures=failures,
        node_failures=node_failures,
    )
    return sim, network


def test_frame_arrives_after_link_delay():
    topo = make_topology([(0, 1, 0.025)])
    sim, network = make_network(topo)
    received = []
    network.attach(1, lambda sender, frame: received.append((sender, frame, sim.now)))
    network.send_data(0, 1, data_frame("hello"))
    sim.run()
    assert received == [(0, data_frame("hello"), 0.025)]


def test_transmit_to_non_neighbor_rejected():
    topo = make_topology([(0, 1, 0.01), (1, 2, 0.01)])
    sim, network = make_network(topo)
    with pytest.raises(SimulationError):
        network.send_data(0, 2, data_frame("x"))


def test_loss_rate_one_drops_everything():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo, loss_rate=1.0)
    received = []
    network.attach(1, lambda s, f: received.append(f))
    for _ in range(20):
        network.send_data(0, 1, data_frame("x"))
    sim.run()
    assert received == []
    assert network.stats.lost_random[FrameKind.DATA] == 20


def test_loss_rate_statistics():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo, loss_rate=0.3, seed=5)
    network.attach(1, lambda s, f: None)
    for _ in range(2000):
        network.send_data(0, 1, data_frame("x"))
    sim.run()
    fraction = network.stats.loss_fraction(FrameKind.DATA)
    assert fraction == pytest.approx(0.3, abs=0.05)


def test_failed_link_drops_frames_during_window():
    topo = make_topology([(0, 1, 0.01)])
    failures = ScriptedFailures({(0, 1): [(0.0, 1.0)]})
    sim, network = make_network(topo, failures=failures)
    received = []
    network.attach(1, lambda s, f: received.append((f, sim.now)))
    network.send_data(0, 1, data_frame("lost"))
    sim.schedule(1.5, network.send_data, 0, 1, data_frame("ok"))
    sim.run()
    assert received == [(data_frame("ok"), pytest.approx(1.51))]
    assert network.stats.lost_failure[FrameKind.DATA] == 1


def test_ack_frames_subject_to_same_hazards():
    topo = make_topology([(0, 1, 0.01)])
    failures = ScriptedFailures({(0, 1): [(0.0, 1.0)]})
    sim, network = make_network(topo, failures=failures)
    network.attach(0, lambda s, f: None)
    network.send_ack(1, 0, "ack")
    sim.run()
    assert network.stats.lost_failure[FrameKind.ACK] == 1


def test_reliable_flag_skips_random_loss_only():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo, loss_rate=1.0)
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.send_data(0, 1, data_frame("x"), reliable=True)
    sim.run()
    assert received == [data_frame("x")]


def test_reliable_flag_does_not_bypass_failures():
    topo = make_topology([(0, 1, 0.01)])
    failures = ScriptedFailures({(0, 1): [(0.0, 1.0)]})
    sim, network = make_network(topo, failures=failures)
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.send_data(0, 1, data_frame("x"), reliable=True)
    sim.run()
    assert received == []


def test_node_failure_drops_frames_from_down_sender():
    topo = make_topology([(0, 1, 0.01)])
    node_failures = NodeFailureSchedule(topo, 1.0, seed=1)
    sim, network = make_network(topo, node_failures=node_failures)
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.send_data(0, 1, data_frame("x"))
    sim.run()
    assert received == []
    assert network.stats.lost_node_down[FrameKind.DATA] == 1


def test_a_node_crash_network_delivers_through_the_generic_path():
    """Where a crash can interpose nothing is compiled: ``send_data`` and
    ``send_ack`` answer ``None``, no ACK arrival is reported, no round
    trip is known, and the interned table counts no fallback."""
    topo = make_topology([(0, 1, 0.01)])
    node_failures = NodeFailureSchedule(topo, 0.0, seed=1)
    sim, network = make_network(topo, node_failures=node_failures)
    received, fates = [], []
    network.attach(0, lambda s, f: received.append(f))
    network.attach(1, lambda s, f: received.append(f))
    network.register_ack_fate_hook(lambda *fate: fates.append(fate))
    network.prewarm_directions()
    assert network.send_data(0, 1, data_frame("d")) is None
    assert network.send_ack(1, 0, "a") is None
    sim.run()
    assert received == [data_frame("d"), "a"]
    assert fates == [] and network.ack_round_trip(0, 1) is None
    assert network.dir_fallbacks == 0


def test_an_ack_lost_to_a_node_crash_is_reported_to_the_fate_hook():
    topo = make_topology([(0, 1, 0.01)])
    node_failures = NodeFailureSchedule(topo, 1.0, seed=1)
    sim, network = make_network(topo, node_failures=node_failures)
    fates = []
    network.register_ack_fate_hook(lambda *fate: fates.append(fate))
    assert network.send_ack(1, 0, "a") is False
    assert fates == [(1, 0, "a", None)]
    assert network.stats.lost_node_down[FrameKind.ACK] == 1


def test_detached_node_silently_drops():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo)
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.detach(1)
    network.send_data(0, 1, data_frame("x"))
    sim.run()
    assert received == []


def test_attach_unknown_node_rejected():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo)
    with pytest.raises(SimulationError):
        network.attach(7, lambda s, f: None)


def test_stats_track_per_kind():
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo)
    network.attach(1, lambda s, f: None)
    network.attach(0, lambda s, f: None)
    network.send_data(0, 1, data_frame("d"))
    network.send_ack(1, 0, "a")
    sim.run()
    assert network.stats.sent[FrameKind.DATA] == 1
    assert network.stats.sent[FrameKind.ACK] == 1
    assert network.stats.data_sent() == 1
    assert network.stats.delivered[FrameKind.ACK] == 1


def test_link_up_reflects_failure_schedule():
    topo = make_topology([(0, 1, 0.01)])
    failures = ScriptedFailures({(0, 1): [(1.0, 2.0)]})
    sim, network = make_network(topo, failures=failures)
    assert network.link_up(0, 1)
    sim.run(until=1.5)
    assert not network.link_up(0, 1)


def test_link_success_probability_combines_hazards():
    topo = make_topology([(0, 1, 0.01)])
    failures = ScriptedFailures({}, failure_probability=0.1)
    sim, network = make_network(topo, loss_rate=0.2, failures=failures)
    assert network.link_success_probability(0, 1) == pytest.approx(0.9 * 0.8)
    assert network.link_success_probability(1, 0) == pytest.approx(0.9 * 0.8)


def test_random_loss_follows_the_scalar_draws():
    """The network's block-drawn loss stream loses exactly the sends that
    one ``Generator.random()`` per lossy send would lose, DATA and ACK
    sends drawing from the one stream in send order."""
    topo = make_topology([(0, 1, 0.01)])
    sim, network = make_network(topo, loss_rate=0.3, seed=5)
    network.attach(0, lambda s, f: None)
    network.attach(1, lambda s, f: None)
    frame = SimpleNamespace(size=1.0)
    sends = [
        lambda: network.send_data(0, 1, frame),
        lambda: network.send_ack(1, 0, frame),
        lambda: network.send_data(0, 1, frame, reliable=False),
    ] * 1000
    survived = [send() for send in sends]
    draws = RandomStreams(5).get("loss")
    assert survived == [not draws.random() < 0.3 for _ in sends]
    lost = network.stats.lost_random
    assert lost[FrameKind.DATA] + lost[FrameKind.ACK] == survived.count(False)


def test_network_is_the_only_reader_of_the_loss_stream():
    streams = RandomStreams(1)
    OverlayNetwork(Simulator(), make_topology([(0, 1, 0.01)]), streams)
    with pytest.raises(SimulationError):
        streams.get("loss")
    with pytest.raises(SimulationError):
        OverlayNetwork(Simulator(), make_topology([(0, 1, 0.01)]), streams)
