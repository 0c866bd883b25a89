"""Transient link-failure schedule.

The paper's dynamic-network model (§IV-A): once every second of simulated
time, each overlay link independently fails for that entire second with
probability ``Pf``, losing every frame that crosses it in that window. The
routing layer only refreshes its link estimates every five minutes, so
individual failures are invisible to the control plane by construction.

The schedule here is *lazy and deterministic*: the failed-link set of epoch
``k`` is derived from ``(seed, k)`` alone, so (a) the injector and the
ORACLE baseline see the exact same failures, (b) the ORACLE can query the
*future* without the simulation having reached it, and (c) memory stays
bounded: each schedule memoises only the last :data:`EPOCH_WINDOW` epochs
it computed. Queries follow the clock — the network asks once per epoch
crossing, the ORACLE from a publish a few link delays ahead — so an
evicted epoch is rarely asked for again, and recomputing it gives the
same set.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.util.validation import require_positive, require_probability

#: Epochs each schedule memoises, the most recently computed ones.
EPOCH_WINDOW = 16


def _remember(
    cache: Dict[int, FrozenSet[Any]], epoch_index: int, value: FrozenSet[Any]
) -> None:
    """Memoise *value* for *epoch_index*, evicting the oldest computed epoch
    once :data:`EPOCH_WINDOW` are kept."""
    if len(cache) >= EPOCH_WINDOW:
        del cache[next(iter(cache))]
    cache[epoch_index] = value


class FailureSchedule:
    """Per-epoch transient link failures, queryable at any virtual time.

    Parameters
    ----------
    topology:
        The overlay whose links fail.
    failure_probability:
        ``Pf``: independent per-link, per-epoch failure probability.
    seed:
        Root seed; epoch ``k`` uses the child stream ``(seed, k)``.
    epoch:
        Epoch length in seconds (paper: 1 s).
    """

    def __init__(
        self,
        topology: Topology,
        failure_probability: float,
        seed: int,
        epoch: float = 1.0,
    ) -> None:
        require_probability(failure_probability, "failure_probability")
        require_positive(epoch, "epoch")
        self._topology = topology
        self._pf = failure_probability
        self._seed = int(seed)
        self._epoch = epoch
        # Sorted canonical edge list: the i-th uniform draw of an epoch
        # always belongs to the same link.
        self._edges: Tuple[Edge, ...] = tuple(sorted(topology.edges()))
        self._cache: Dict[int, FrozenSet[Edge]] = {}

    @property
    def failure_probability(self) -> float:
        """Pf, the per-link per-epoch failure probability."""
        return self._pf

    @property
    def epoch(self) -> float:
        """Epoch length in seconds."""
        return self._epoch

    def epoch_index(self, time: float) -> int:
        """The epoch that contains virtual time *time*."""
        return int(time // self._epoch)

    def failed_edges(self, epoch_index: int) -> FrozenSet[Edge]:
        """The set of links failed throughout epoch *epoch_index*."""
        cached = self._cache.get(epoch_index)
        if cached is not None:
            return cached
        if self._pf == 0.0 or not self._edges:
            failed: FrozenSet[Edge] = frozenset()
        else:
            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(0xFA11, epoch_index)
            )
            rng = np.random.default_rng(sequence)
            draws = rng.random(len(self._edges))
            failed = frozenset(
                edge for edge, draw in zip(self._edges, draws) if draw < self._pf
            )
        _remember(self._cache, epoch_index, failed)
        return failed

    def is_failed(self, u: int, v: int, time: float) -> bool:
        """Whether link (u, v) is failed at virtual time *time*."""
        return canonical_edge(u, v) in self.failed_edges(self.epoch_index(time))


class NodeFailureSchedule:
    """Optional node-crash model (paper §V future work, built as extension).

    A node failed during an epoch loses every frame it would send *or*
    receive — equivalently, all its links behave as failed. Disabled by
    default (``failure_probability=0``) in the paper-faithful experiments.
    """

    def __init__(
        self,
        topology: Topology,
        failure_probability: float,
        seed: int,
        epoch: float = 1.0,
        protected_nodes: Optional[FrozenSet[int]] = None,
    ) -> None:
        require_probability(failure_probability, "failure_probability")
        require_positive(epoch, "epoch")
        self._topology = topology
        self._pf = failure_probability
        self._seed = int(seed)
        self._epoch = epoch
        self._protected = protected_nodes or frozenset()
        self._cache: Dict[int, FrozenSet[int]] = {}

    @property
    def failure_probability(self) -> float:
        """Per-node per-epoch crash probability."""
        return self._pf

    def epoch_index(self, time: float) -> int:
        """The epoch that contains virtual time *time*."""
        return int(time // self._epoch)

    def failed_nodes(self, epoch_index: int) -> FrozenSet[int]:
        """Nodes down throughout epoch *epoch_index*."""
        cached = self._cache.get(epoch_index)
        if cached is not None:
            return cached
        if self._pf == 0.0:
            failed: FrozenSet[int] = frozenset()
        else:
            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(0x0DE5, epoch_index)
            )
            rng = np.random.default_rng(sequence)
            draws = rng.random(self._topology.num_nodes)
            failed = frozenset(
                node
                for node, draw in zip(self._topology.nodes, draws)
                if draw < self._pf and node not in self._protected
            )
        _remember(self._cache, epoch_index, failed)
        return failed

    def is_failed(self, node: int, time: float) -> bool:
        """Whether *node* is down at virtual time *time*."""
        return node in self.failed_nodes(self.epoch_index(time))
