"""Periodic processes layered on the raw event queue.

:class:`PeriodicProcess` drives recurring activities such as per-second
failure injection, publisher packet emission, and the 5-minute
link-monitoring cycle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Event, Simulator
from repro.util.errors import SimulationError
from repro.util.validation import require_positive


class PeriodicProcess:
    """Invokes a callback every ``period`` seconds of virtual time.

    The first invocation happens at ``start_offset`` (default: one full
    period after :meth:`start`). The process reschedules itself after each
    tick until :meth:`stop` is called or the simulation ends.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        start_offset: Optional[float] = None,
    ) -> None:
        require_positive(period, "period")
        if start_offset is not None and start_offset < 0:
            raise SimulationError(f"start_offset must be >= 0, got {start_offset}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._start_offset = period if start_offset is None else start_offset
        self._event: Optional[Event] = None
        self._ticks = 0

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def running(self) -> bool:
        """Whether the process has a pending tick."""
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Begin ticking. Idempotent while running."""
        if self.running:
            return
        self._event = self._sim.schedule(self._start_offset, self._tick)

    def stop(self) -> None:
        """Stop ticking. The callback will not fire again until restarted."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._ticks += 1
        self._event = self._sim.schedule(self._period, self._tick)
        self._callback()
