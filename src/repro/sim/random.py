"""Per-component pseudo-random streams.

A simulation draws randomness for several independent purposes: topology
construction, link-delay sampling, per-transmission loss, per-second failure
injection, workload placement, and publish jitter. Driving them all from one
generator would make every result sensitive to the *order* of draws, so a
change in one subsystem would silently reshuffle another subsystem's
randomness. :class:`RandomStreams` instead derives one child
:class:`numpy.random.Generator` per named purpose from a single root seed
using ``numpy``'s ``SeedSequence.spawn`` machinery, keyed by a stable hash of
the stream name. Identical (seed, name) pairs always yield identical streams.

A stream read one uniform at a time on a hot path (the overlay's
per-transmission loss draws) is better read through
:meth:`RandomStreams.uniform_draws`: one ``Generator.random()`` call costs
several hundred nanoseconds, while the same values drawn a block at a time
and handed out by a C-level iterator cost a tenth of that.
"""

from __future__ import annotations

import zlib
from itertools import chain, repeat
from typing import Dict, Iterator, Set

import numpy as np

from repro.util.errors import SimulationError

#: Uniforms :meth:`RandomStreams.uniform_draws` draws per refill.
DRAW_BLOCK = 1024


class RandomStreams:
    """Factory of named, reproducible random generators.

    >>> streams = RandomStreams(seed=42)
    >>> a1 = streams.get("loss").random()
    >>> a2 = RandomStreams(seed=42).get("loss").random()
    >>> a1 == a2
    True
    >>> streams.get("loss") is streams.get("loss")
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._generators: Dict[str, np.random.Generator] = {}
        # Streams handed to a block reader (uniform_draws): it draws ahead,
        # so it must be the stream's only reader.
        self._block_read: Set[str] = set()

    @property
    def seed(self) -> int:
        """The root seed this family of streams derives from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically.

        Repeated calls with the same name return the same (stateful)
        generator object, so consumers share a stream by sharing a name.
        A stream given to :meth:`uniform_draws` has no other reader.
        """
        if name in self._block_read:
            raise SimulationError(
                f"stream {name!r} is block-read by uniform_draws; a second "
                "reader would see values shifted by the draws it holds ahead"
            )
        generator = self._generators.get(name)
        if generator is None:
            key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            generator = np.random.default_rng(sequence)
            self._generators[name] = generator
        return generator

    def uniform_draws(self, name: str) -> Iterator[float]:
        """The uniform ``[0, 1)`` draws of stream *name*, as one endless iterator.

        Yields exactly the values, in exactly the order, that repeated
        ``get(name).random()`` calls would return (``Generator.random(n)``
        fills an array with the same per-value rule as the scalar call, so
        on the default PCG64 the floats are bit-identical, across refills
        too), but draws them :data:`DRAW_BLOCK` at a time: ``next()`` on
        the iterator is C code from end to end, refills included. The
        iterator draws up to a block ahead of its consumer, so it must be the
        stream's only reader: the stream must not have been handed out by
        :meth:`get` before, and any later :meth:`get` or
        :meth:`uniform_draws` of *name* raises :class:`SimulationError`.
        """
        if name in self._generators:
            raise SimulationError(f"stream {name!r} already has a reader")
        generator = self.get(name)
        self._block_read.add(name)
        return chain.from_iterable(
            map(np.ndarray.tolist, map(generator.random, repeat(DRAW_BLOCK)))
        )

    def fork(self, offset: int) -> "RandomStreams":
        """Derive an independent family for e.g. a replication index."""
        return RandomStreams(seed=self._seed * 1_000_003 + offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._generators)})"
