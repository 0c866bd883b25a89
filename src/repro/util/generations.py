"""Keys kept for one horizon: two generations retired one horizon apart.

Per-message state that only a late copy of the message can still need
is kept by time, not forever: once no copy can arrive any more (the
composition root derives when, :func:`repro.stack.message_horizon`), the
state can go. :class:`Generations` is that rule for the ordering stage —
the pipelines' released ids and the plan's stamp cache — and the broker's
dedup window (:meth:`repro.pubsub.broker.BrokerRuntime._retire`) is the
same rule inlined on the hottest path.
"""

from __future__ import annotations

import math
from typing import Any, Callable


class Generations:
    """Two generations of keys, retired one *horizon* apart by add time.

    ``current`` collects the keys added in ``[retire_at - H, retire_at)``.
    The first :meth:`at` at or after ``retire_at`` makes it ``older`` —
    a key in it may still be asked for — and opens a new ``current``;
    when that call comes ``H`` or more past ``retire_at``, no key of
    either can be asked for and both are dropped. A key added at ``t``
    is therefore found until at least ``t + H``, and nothing added more
    than ``2 H`` before the latest add is kept. With ``H = math.inf``
    (the default, and every world with no proven horizon) nothing ever
    retires: ``current`` holds every key and ``older`` stays empty.

    *container* is ``set`` (keys) or ``dict`` (keys with a value).
    """

    __slots__ = ("current", "older", "horizon", "retire_at", "_container")

    def __init__(self, container: Callable[[], Any] = set) -> None:
        self._container = container
        self.current = container()
        self.older = container()
        self.horizon = math.inf
        self.retire_at = math.inf

    def bound(self, horizon: float, now: float) -> None:
        """Retire one *horizon* apart from *now* on."""
        self.horizon = horizon
        self.retire_at = now + horizon

    def at(self, now: float) -> Any:
        """The generation an add at *now* joins, retiring the current one
        first if it is due."""
        if now >= self.retire_at:
            horizon = self.horizon
            if now < self.retire_at + horizon:
                self.older = self.current
                self.retire_at += horizon
            else:
                self.older = self._container()
                self.retire_at = now + horizon
            self.current = self._container()
        return self.current

    def get(self, key: Any) -> Any:
        """The value kept for *key* (``dict`` generations), else ``None``."""
        value = self.current.get(key)
        if value is None:
            value = self.older.get(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return key in self.current or key in self.older

    def __len__(self) -> int:
        return len(self.current) + len(self.older)
