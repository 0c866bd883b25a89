"""Discrete-event simulation kernel.

``simpy`` is not available in this environment, so the kernel is implemented
from scratch: a heap-based calendar queue (:class:`~repro.sim.engine.Calendar`,
popped by :class:`~repro.sim.engine.Simulator` and, on wall time, by the
live clock), cancellable events, periodic processes, and per-component seeded random
streams (:class:`~repro.sim.random.RandomStreams`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import RandomStreams

__all__ = ["Event", "PeriodicProcess", "RandomStreams", "Simulator"]
