"""Link monitoring: the control plane's (stale) view of link quality.

The paper assumes each broker knows, per adjacent link, the single-
transmission latency ``alpha(1)`` and delivery ratio ``gamma(1)``, obtained
"through either link monitoring or online measurements" (§III-A), refreshed
every five minutes while the network state changes every second (§IV-A).

Two estimation modes are provided:

``analytic``
    The long-run truth: ``alpha`` is the configured link delay and ``gamma``
    is ``(1 - Pl) * (1 - Pf)``. This is the paper-faithful default — routing
    tables reflect average behaviour and are *blind to individual failure
    epochs*, which is exactly the staleness the paper engineers.

``sampled``
    An online-measurement emulation: every refresh sends a burst of virtual
    probes across each link, observes Bernoulli successes under the current
    hazard rates, and folds the observation into an EWMA. Used by the
    monitoring ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping

from repro.overlay.links import OverlayNetwork
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.sim.random import RandomStreams
from repro.util.errors import ConfigurationError
from repro.util.validation import require, require_in_range

#: Paper setting (§IV-A): brokers re-monitor the network every 5 minutes.
DEFAULT_MONITOR_PERIOD = 300.0


@dataclass(frozen=True)
class LinkEstimate:
    """The control plane's belief about one link.

    Attributes
    ----------
    alpha:
        Estimated single-transmission latency in seconds (paper's alpha^(1)).
    gamma:
        Estimated single-transmission delivery ratio (paper's gamma^(1)).
    """

    alpha: float
    gamma: float


class LinkMonitor:
    """Produces and refreshes :class:`LinkEstimate` values per link.

    Estimates are symmetric (the overlay links are), keyed by canonical edge.
    """

    MODES = ("analytic", "sampled")

    def __init__(
        self,
        topology: Topology,
        network: OverlayNetwork,
        streams: RandomStreams,
        mode: str = "analytic",
        probes_per_cycle: int = 50,
        ewma_weight: float = 0.3,
        gamma_floor: float = 1e-6,
    ) -> None:
        if mode not in self.MODES:
            raise ConfigurationError(
                f"unknown monitor mode {mode!r}; expected one of {self.MODES}"
            )
        require(probes_per_cycle >= 1, "probes_per_cycle must be >= 1")
        require_in_range(ewma_weight, 0.0, 1.0, "ewma_weight")
        self._topology = topology
        self._network = network
        self._mode = mode
        self._probes = probes_per_cycle
        self._ewma_weight = ewma_weight
        self._gamma_floor = gamma_floor
        self._rng = streams.get("monitor")
        self._estimates: Dict[Edge, LinkEstimate] = {}
        self._view = MappingProxyType(self._estimates)
        self._refreshes = 0
        #: Monotone estimate version: bumps only when a refresh changed at
        #: least one link's estimate. Consumers (the DCRD control plane,
        #: the ARQ's per-direction timeouts) compare this counter instead
        #: of hashing/sorting all estimates, so the "nothing changed"
        #: check is O(1). A plain attribute, not a property: the ARQ reads
        #: it once per copy sent. Only :meth:`refresh` writes it.
        self.version = 0
        self._last_changed: FrozenSet[Edge] = frozenset()
        self._last_alpha_changed = False
        self.refresh()

    @property
    def mode(self) -> str:
        """The active estimation mode."""
        return self._mode

    @property
    def refreshes(self) -> int:
        """How many monitoring cycles have completed."""
        return self._refreshes

    @property
    def last_changed(self) -> FrozenSet[Edge]:
        """Edges whose estimate changed in the refresh that produced
        :attr:`version` (all edges after the initial cycle)."""
        return self._last_changed

    @property
    def last_alpha_changed(self) -> bool:
        """Whether any *latency* (alpha) estimate changed in that refresh.

        Alpha feeds the delay-budget Dijkstra, so an alpha change
        invalidates every table; gamma-only changes invalidate selectively.
        """
        return self._last_alpha_changed

    def estimate(self, u: int, v: int) -> LinkEstimate:
        """Current belief about link (u, v)."""
        return self._estimates[canonical_edge(u, v)]

    def estimates(self) -> Mapping[Edge, LinkEstimate]:
        """A read-only live view of all link estimates (no copying).

        The view always reflects the latest refresh; callers needing an
        isolated copy should use :meth:`snapshot`.
        """
        return self._view

    def snapshot(self) -> Dict[Edge, LinkEstimate]:
        """An isolated snapshot copy of all link estimates."""
        return dict(self._estimates)

    def refresh(self) -> None:
        """Run one monitoring cycle, updating every link's estimate.

        Records which edges' estimates actually changed (``last_changed``)
        and bumps :attr:`version` only when at least one did.
        """
        if self._mode == "analytic":
            new = self._refresh_analytic()
        else:
            new = self._refresh_sampled()
        changed = [
            edge for edge, est in new.items() if self._estimates.get(edge) != est
        ]
        if changed:
            self._last_alpha_changed = any(
                edge not in self._estimates
                or self._estimates[edge].alpha != new[edge].alpha
                for edge in changed
            )
            self._last_changed = frozenset(changed)
            self._estimates.update(new)
            self.version += 1
        self._refreshes += 1

    # ------------------------------------------------------------------
    def _truth(self, edge: Edge) -> float:
        return self._network.link_success_probability(*edge)

    def _refresh_analytic(self) -> Dict[Edge, LinkEstimate]:
        new = {}
        for edge in self._topology.edges():
            gamma = max(self._truth(edge), self._gamma_floor)
            new[edge] = LinkEstimate(alpha=self._topology.delay(*edge), gamma=gamma)
        return new

    def _refresh_sampled(self) -> Dict[Edge, LinkEstimate]:
        new = {}
        for edge in self._topology.edges():
            truth = self._truth(edge)
            successes = int(self._rng.binomial(self._probes, truth))
            observed = successes / self._probes
            previous = self._estimates.get(edge)
            if previous is None:
                gamma = observed
            else:
                gamma = (
                    self._ewma_weight * observed
                    + (1.0 - self._ewma_weight) * previous.gamma
                )
            gamma = max(gamma, self._gamma_floor)
            new[edge] = LinkEstimate(alpha=self._topology.delay(*edge), gamma=gamma)
        return new
