"""Unit tests for periodic processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.util.errors import ConfigurationError, SimulationError


class TestPeriodicProcess:
    def test_ticks_every_period(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]
        assert process.ticks == 3

    def test_start_offset_controls_first_tick(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(
            sim, 1.0, lambda: times.append(sim.now), start_offset=0.25
        )
        process.start()
        sim.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_zero_offset_ticks_immediately(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(
            sim, 2.0, lambda: times.append(sim.now), start_offset=0.0
        )
        process.start()
        sim.run(until=3.0)
        assert times == [0.0, 2.0]

    def test_stop_halts_ticking(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.schedule(2.5, process.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not process.running

    def test_start_is_idempotent_while_running(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        process.start()
        sim.run(until=2.0)
        assert times == [1.0, 2.0]

    def test_restart_after_stop(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=1.0)
        process.stop()
        process.start()
        sim.run(until=2.5)
        assert times == [1.0, 2.0]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PeriodicProcess(sim, 0.0, lambda: None)

    def test_negative_offset_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicProcess(sim, 1.0, lambda: None, start_offset=-1.0)
