"""The distributed ``<d, r>`` recursion (Eq. 2 and Eq. 3) and its solver.

The paper seeds the recursion at the subscriber (``<0, 1>``) and lets every
broker recompute its own ``<d_X, r_X>`` from its neighbours' advertised
values, filtered by the delay budget and ordered by Theorem 1. We solve the
same recursion with synchronous (Jacobi) rounds: round ``k`` recomputes all
nodes from the round ``k-1`` values, which mirrors the hop-by-hop gossip of
the distributed protocol and is deterministic. Cyclic dependencies (two
brokers on each other's sending lists) are permitted, exactly as in the
paper; ``r`` converges monotonically from below and ``d`` stabilises within
a few diameters in practice, with a hard round bound as a backstop.

The result, a :class:`DrTable`, is the per-(publisher, subscriber) control
state: each node's ``<d, r>`` plus its ordered sending list.

Batching and incrementality
---------------------------

Algorithm 1 re-runs after every monitoring cycle, and most of the work of
one (publisher, subscriber) solve is *pair-independent*: the Eq. 1
``(alpha_m, gamma_m)`` link table and the adjacency depend only on the
estimates, and the budget Dijkstra depends only on the publisher.
:class:`ControlPlaneSolver` computes each of those artifacts exactly once
per refresh and then solves **every table of the refresh in one batched
NumPy kernel** (:meth:`ControlPlaneSolver.solve`): the ``<d, r>`` vectors
of all tables live in two ``(tables, nodes + 1)`` arrays, and one Jacobi
round gathers the neighbour values of every dirty ``(table, node)`` pair,
applies the budget filter, sorts the candidates and folds Eq. 3 — for all
tables in lock-step, one C loop per arithmetic step instead of one Python
call per node per round per table. A single pair is a batch of one.

The kernel is bit-identical to the scalar per-node loop it replaced (kept
as the oracle in ``tests/core/reference_solver.py``), by construction:

* **operation order** — every float is produced by the same IEEE-754
  double operations in the same order: ``alpha + d_i``, ``gamma * r_i``,
  their quotient, and a ``for k in range(max_degree)`` fold that performs
  Eq. 3's adds and multiplies position by position. Slots that hold no
  candidate (padding, dead links, neighbours outside the budget) carry
  ``d_via = r_via = 0`` and so contribute ``+ 0.0`` and ``* 1.0``, which
  are exact;
* **stable tie-break** — the link columns are laid out in neighbour-id
  order and the sort is stable, so equal ``d/r`` ratios fall in
  neighbour-id order exactly as the scalar ``(ratio, neighbour)`` tuple
  sort placed them;
* **same gate, same dirty sets** — a node's update is accepted by the
  same three-clause tolerance test, and each table keeps its own dirty
  mask (neighbours of the nodes that moved last round, never the
  subscriber), so every table runs the rounds, and evaluates the nodes,
  the scalar loop would have — or, in a limit cycle (below), accounts for
  them: ``rounds``, ``converged`` and the ``jacobi_rounds`` /
  ``node_recomputes`` counters repeat exactly.

One further acceleration sits on top — **dirty-edge relevance**
(:meth:`ControlPlaneSolver.table_affected`): a changed edge can only
influence a table if at least one endpoint has a positive delay budget
(``dist(P, endpoint) < deadline``); a broker whose budget is non-positive
provably holds ``<inf, 0>`` forever and its links are never read. Tables
no changed edge can reach are reused verbatim (bit-identical, the solve
is skipped entirely).

Earlier versions also *replayed* the previous solve's recorded Jacobi
trajectory, recomputing only the changed edges' influence cone. It was
removed when the kernel landed: a replay is a per-table Python loop that
cannot run inside the batch, a sampled refresh moves every estimate so the
cone is the whole graph, and even in its best regime (7 of 640 estimates
changed) it lost to the kernel — see ``docs/ALGORITHMS.md``. A naive warm
start (seeding Jacobi from the previous ``<d, r>`` values) was never an
option: the tolerance-gated iteration parks values within ``tol`` of
budget-eligibility boundaries, so a warm fixed point within ``tol`` of the
cold one can still flip a strict ``d_i < budget`` comparison and change a
sending list.

Tables that never converge
--------------------------

Budget eligibility is a strict comparison on values that feed back through
cyclic sending lists, so a minority of tables fall into a *bit-exact* limit
cycle (period 2-12) instead of a fixed point. The table shipped is the
state after exactly ``max_rounds`` synchronous rounds — a deterministic
function of the estimates — flagged ``converged=False`` and counted in
``control_plane.tables_unconverged``. The rounds to that backstop are not
run: one Jacobi round is a pure function of a table's ``d`` row, ``r`` row
and dirty mask, so once all three equal, bit for bit, what they were ``p``
rounds earlier (Brent's scheme: one snapshot of the batch, retaken at
power-of-two rounds, compared after every round) the table is carried
forward ``((max_rounds - k) // p) * p`` rounds arithmetically and only the
remaining ``(max_rounds - k) % p`` rounds are computed. ``rounds``,
``jacobi_rounds`` and ``node_recomputes`` advance by what the skipped
rounds would have counted (``control_plane.cycles_detected`` and
``control_plane.rounds_skipped`` say how much that was), so the result is
the scalar loop's in every field. Detection reads only the table's own
rows, so it cannot depend on what else is in the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx
import numpy as np

from repro.core.linkmath import link_params_m
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.perf import PerfStats
from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class ViaNeighbor:
    """Eq. 2 values for reaching the subscriber via one neighbour.

    ``d_via = alpha_Xi + d_i`` and ``r_via = gamma_Xi * r_i``, where the
    link parameters are the m-transmission values of Eq. 1.
    """

    neighbor: int
    d_via: float
    r_via: float


@dataclass(frozen=True)
class NodeState:
    """One broker's control state for one (publisher, subscriber) pair."""

    d: float
    r: float
    sending_list: Tuple[ViaNeighbor, ...]

    @property
    def neighbor_order(self) -> Tuple[int, ...]:
        """Sending-list neighbour ids, in Theorem 1 order."""
        return tuple(via.neighbor for via in self.sending_list)


def aggregate_dr(vias: Sequence[ViaNeighbor]) -> Tuple[float, float]:
    """Eq. 3: fold an *ordered* sending list into ``(d_X, r_X)``.

    An empty list yields ``(inf, 0)``: the broker cannot reach the
    subscriber within budget through anyone.
    """
    survive = 1.0  # probability all neighbours tried so far failed
    weighted = 0.0
    cumulative_delay = 0.0
    for via in vias:
        cumulative_delay += via.d_via
        weighted += cumulative_delay * via.r_via * survive
        survive *= 1.0 - via.r_via
    r = 1.0 - survive
    if r <= 0.0:
        return float("inf"), 0.0
    return weighted / r, r


class _SolvedStates(Mapping[int, NodeState]):
    """The ``states`` of a solved table, read from the solver's array rows.

    A refresh produces tens of thousands of (table, node) states and the
    data plane reads a handful per table, so :class:`NodeState` and
    :class:`ViaNeighbor` objects are built on first access and cached.
    Being a :class:`~collections.abc.Mapping`, it iterates, compares and
    copies (``dict(states)``) like the plain dict of a hand-built table.
    """

    __slots__ = ("_d", "_r", "_lengths", "_neighbors", "_d_via", "_r_via", "_built")

    def __init__(
        self,
        d: np.ndarray,
        r: np.ndarray,
        lengths: np.ndarray,
        neighbors: np.ndarray,
        d_via: np.ndarray,
        r_via: np.ndarray,
    ) -> None:
        # Per-node ``<d, r>``, sending-list length, and the sending list's
        # (neighbour, d_via, r_via) columns in Theorem 1 order.
        self._d = d
        self._r = r
        self._lengths = lengths
        self._neighbors = neighbors
        self._d_via = d_via
        self._r_via = r_via
        self._built: Dict[int, NodeState] = {}

    def __getitem__(self, node: int) -> NodeState:
        state = self._built.get(node)
        if state is None:
            if node not in range(len(self._d)):
                raise KeyError(node)
            length = self._lengths[node]
            state = NodeState(
                d=self._d[node].item(),
                r=self._r[node].item(),
                sending_list=tuple(
                    map(
                        ViaNeighbor,
                        self._neighbors[node, :length].tolist(),
                        self._d_via[node, :length].tolist(),
                        self._r_via[node, :length].tolist(),
                    )
                ),
            )
            self._built[node] = state
        return state

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._d)))

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class DrTable:
    """Control state of all brokers for one (publisher, subscriber) pair."""

    publisher: int
    subscriber: int
    deadline: float
    states: Mapping[int, NodeState]
    budgets: Dict[int, float]
    rounds: int
    converged: bool
    #: Per-node :meth:`sending_list` results. The forwarding data plane
    #: asks for the same node's list once per dispatched destination and
    #: ``NodeState.neighbor_order`` rebuilds its tuple on every access, so
    #: they are kept here (states are immutable after the solve): filled by
    #: the solver for every node, on first use for a hand-built table.
    _orders: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def state(self, node: int) -> NodeState:
        """The :class:`NodeState` of *node*."""
        return self.states[node]

    def sending_list(self, node: int) -> Tuple[int, ...]:
        """Ordered candidate next hops of *node* for this subscriber."""
        order = self._orders.get(node)
        if order is None:
            order = self.states[node].neighbor_order
            self._orders[node] = order
        return order

    def budget(self, node: int) -> float:
        """``D_XS``: the remaining delay requirement at *node*."""
        return self.budgets[node]

    def reachable(self, node: int) -> bool:
        """Whether *node* expects to deliver within budget at all."""
        return self.states[node].r > 0.0


def _estimate_weight_graph(
    topology: Topology, estimates: Mapping[Edge, LinkEstimate]
) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for edge in topology.edges():
        graph.add_edge(*edge, weight=estimates[edge].alpha)
    return graph


class ControlPlaneSolver:
    """Shared-artifact batch solver for all ``<d, r>`` tables of one refresh.

    Constructing the solver resolves everything that is independent of the
    (publisher, subscriber) pair — the Eq. 1 ``(alpha_m, gamma_m)`` table,
    laid out as padded per-node link arrays, and the alpha-weighted graph
    for budget Dijkstras — exactly once. Per-publisher shortest-delay maps
    are then computed lazily and cached, so solving all subscribers of one
    publisher costs a single ``single_source_dijkstra_path_length`` call.

    One solver instance is valid for one immutable estimates snapshot;
    build a fresh instance after every monitoring refresh.
    """

    def __init__(
        self,
        topology: Topology,
        estimates: Mapping[Edge, LinkEstimate],
        m: int = 1,
        max_rounds: Optional[int] = None,
        tol: float = 1e-9,
        perf: Optional[PerfStats] = None,
    ) -> None:
        require(m >= 1, f"m must be >= 1, got {m}")
        self.topology = topology
        self.estimates = estimates
        self.m = m
        num_nodes = topology.num_nodes
        if max_rounds is None:
            max_rounds = max(64, 2 * num_nodes)
        self.max_rounds = max_rounds
        self.tol = tol
        self.perf = perf

        # Per-link m-transmission parameters (Eq. 1), symmetric.
        link_m = {
            edge: link_params_m(estimates[edge].alpha, estimates[edge].gamma, m)
            for edge in topology.edges()
        }

        # Padded per-node link arrays, one column per neighbour in
        # neighbour-id order. ``num_nodes`` is the index of a sentinel
        # column the kernel keeps at <inf, 0>: padding points there, and so
        # do dead links (gamma 0 / alpha inf) in ``_usable``, which the
        # recursion reads — a sentinel neighbour is never within budget.
        # Dirty propagation follows ``_neighbors``, dead links included.
        width = max(topology.degree(node) for node in topology.nodes)
        self._neighbors = np.full((num_nodes, width), num_nodes, dtype=np.intp)
        self._usable = self._neighbors.copy()
        self._alpha = np.zeros((num_nodes, width))
        self._gamma = np.zeros((num_nodes, width))
        for node in topology.nodes:
            for column, neighbor in enumerate(topology.neighbors(node)):
                self._neighbors[node, column] = neighbor
                alpha_m, gamma_m = link_m[canonical_edge(node, neighbor)]
                if math.isfinite(alpha_m) and gamma_m > 0.0:
                    self._usable[node, column] = neighbor
                    self._alpha[node, column] = alpha_m
                    self._gamma[node, column] = gamma_m

        self._weight_graph = _estimate_weight_graph(topology, estimates)
        self._dist_cache: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    def distances_from(self, publisher: int) -> Dict[int, float]:
        """Shortest alpha-weighted delays from *publisher*.

        Memoised on this solver only: the map is a function of this
        solver's estimates snapshot, and no other solver sees it.
        """
        dist = self._dist_cache.get(publisher)
        if dist is None:
            dist = nx.single_source_dijkstra_path_length(
                self._weight_graph, publisher, weight="weight"
            )
            self._dist_cache[publisher] = dist
            if self.perf is not None:
                self.perf.incr("control_plane.dijkstra_calls")
        return dist

    def table_affected(
        self, publisher: int, deadline: float, changed_edges: Iterable[Edge]
    ) -> bool:
        """Whether any changed edge can influence the (publisher, deadline)
        table at all.

        An edge both of whose endpoints have non-positive budget
        (``dist(P, endpoint) >= deadline``) is provably inert: those
        brokers hold ``<inf, 0>`` in every round regardless of the edge's
        parameters, and no other broker ever reads the edge. Only valid
        for gamma-only changes (alpha changes move the distances
        themselves).
        """
        dist = self.distances_from(publisher)
        inf = float("inf")
        for u, v in changed_edges:
            if dist.get(u, inf) < deadline or dist.get(v, inf) < deadline:
                return True
        return False

    # ------------------------------------------------------------------
    def _candidates(
        self,
        d: np.ndarray,
        r: np.ndarray,
        budgets: np.ndarray,
        cells: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 2, the budget filter and the Theorem 1 order, batched.

        *cells* are flat ``table * (num_nodes + 1) + node`` positions in
        *d*, *r* and *budgets*. For each one, the node's link columns as
        ``(neighbors, d_via, r_via)`` rows sorted ascending by
        ``d_via / r_via`` (stable, so ties stay in neighbour-id order), and
        ``eligible``, which marks the real candidates (in column order).
        The rest — padding, dead links, neighbours that do not expect
        delivery within the node's budget (Algorithm 1 line 4) or at all —
        sort last and carry ``d_via = r_via = 0``.
        """
        stride = self.topology.num_nodes + 1
        tables, nodes = np.divmod(cells, stride)
        neighbors = self._usable[nodes]
        via = neighbors + (tables * stride)[:, None]
        d_i = d.take(via)
        r_i = r.take(via)
        eligible = (d_i < budgets.take(cells)[:, None]) & (r_i > 0.0)
        d_via = np.where(eligible, self._alpha[nodes] + d_i, 0.0)
        r_via = np.where(eligible, self._gamma[nodes] * r_i, 0.0)
        ratio = np.where(eligible, d_via / r_via, math.inf)
        order = np.argsort(ratio, axis=1, kind="stable")
        # take() on the flattened rows is several times faster than
        # take_along_axis, and this runs every round.
        order += (np.arange(len(cells)) * order.shape[1])[:, None]
        return neighbors.take(order), d_via.take(order), r_via.take(order), eligible

    def solve(self, pairs: Sequence[Tuple[int, int, float]]) -> List[DrTable]:
        """Solve ``(publisher, subscriber, deadline)`` pairs in lock-step.

        All tables advance through the same Jacobi rounds together; each
        stops on its own, with nothing left dirty or at its round
        ``max_rounds`` (reached early by a table in a limit cycle, see the
        module docstring). The result list is aligned with *pairs*, and
        every table is independent of what else was in the batch.
        """
        pairs = list(pairs)
        num = self.topology.num_nodes
        for _, subscriber, deadline in pairs:
            require(0 <= subscriber < num, f"no broker {subscriber}")
            require_positive(deadline, "deadline")
        if not pairs:
            return []
        count = len(pairs)
        inf = math.inf
        tol = self.tol

        # The state of the whole batch is flat: cell ``t * stride + x`` is
        # node x of table t, and cell ``t * stride + num`` is table t's
        # sentinel neighbour (padded and dead links), pinned at <inf, 0>.
        stride = num + 1
        first_cell = np.arange(count) * stride
        subscriber_cells = first_cell + [subscriber for _, subscriber, _ in pairs]
        sentinel_cells = first_cell + num
        node_cells = (first_cell[:, None] + np.arange(num)).ravel()

        # Remaining budget at each broker: D_XS = D_PS - shortest_delay(P, X),
        # with shortest delays taken over the monitor's alpha estimates.
        # The sentinel, like an unreachable broker, is infinitely far.
        distance_rows: Dict[int, np.ndarray] = {}
        budgets = np.empty((count, stride))
        for index, (publisher, _, deadline) in enumerate(pairs):
            row = distance_rows.get(publisher)
            if row is None:
                dist = self.distances_from(publisher)
                row = np.array([dist.get(node, inf) for node in range(stride)])
                distance_rows[publisher] = row
            budgets[index] = deadline - row

        d = np.full(count * stride, inf)
        r = np.zeros(count * stride)
        d[subscriber_cells] = 0.0
        r[subscriber_cells] = 1.0
        dirty = np.zeros(count * stride, dtype=bool)
        dirty[node_cells] = True
        dirty[subscriber_cells] = False

        # Per-table views of the flat state (floats as their bit patterns),
        # and per-table bookkeeping: the last batch round a table had dirty
        # cells in, its node recomputes, the rounds it was carried forward
        # (a table's own round is the batch round plus those), and whether
        # max_rounds cut it off.
        table_shape = (count, stride)
        d_bits = d.view(np.int64).reshape(table_shape)
        r_bits = r.view(np.int64).reshape(table_shape)
        dirty_rows = dirty.reshape(table_shape)
        rounds = np.zeros(count, dtype=np.intp)
        recomputes = np.zeros(count, dtype=np.intp)
        carried = np.zeros(count, dtype=np.intp)
        cut_off = np.zeros(count, dtype=bool)
        snapshot_round = 0
        # Batch rounds in which some table reaches its own round max_rounds.
        stops = {self.max_rounds}
        # Masked slots evaluate 0/0 and unreached nodes inf - inf; both
        # results are discarded by the np.where / isfinite guards.
        with np.errstate(divide="ignore", invalid="ignore"):
            # Jacobi with dirty-set propagation: a node is recomputed only
            # when one of its neighbours moved in its table's previous
            # round. Every new value is computed before any is written.
            for round_number in range(1, self.max_rounds + 1):
                cells = np.flatnonzero(dirty)
                if not len(cells):
                    break
                owners = cells // stride
                rounds[owners] = round_number
                recomputes += np.bincount(owners, minlength=count)
                _, d_via, r_via, _ = self._candidates(d, r, budgets, cells)
                # Eq. 3, position by position along the sending list.
                survive = np.ones(len(cells))
                weighted = np.zeros(len(cells))
                cumulative = np.zeros(len(cells))
                for k in range(d_via.shape[1]):
                    cumulative = cumulative + d_via[:, k]
                    weighted = weighted + cumulative * r_via[:, k] * survive
                    survive = survive * (1.0 - r_via[:, k])
                r_x = 1.0 - survive
                reaches = r_x > 0.0
                new_d = np.where(reaches, weighted / r_x, inf)
                new_r = np.where(reaches, r_x, 0.0)
                # A node moves only if it changed beyond tol.
                old_d = d[cells]
                moved = (
                    (np.abs(new_r - r[cells]) > tol)
                    | (np.isinf(new_d) != np.isinf(old_d))
                    | (np.isfinite(new_d) & (np.abs(new_d - old_d) > tol))
                )
                cells = cells[moved]
                d[cells] = new_d[moved]
                r[cells] = new_r[moved]
                tables, nodes = np.divmod(cells, stride)
                dirty[:] = False
                dirty[self._neighbors[nodes] + (tables * stride)[:, None]] = True
                dirty[sentinel_cells] = False
                dirty[subscriber_cells] = False

                # Limit-cycle fast-forward (Brent). A round is a pure
                # function of a table's d row, r row and dirty row, so a
                # running table whose three rows equal — bit for bit — the
                # snapshot taken ``period`` rounds ago repeats those rounds
                # forever: carry it over every whole period that fits
                # before max_rounds, counting the recomputes those rounds
                # would have made, and run only the remainder for real.
                if snapshot_round:
                    repeats = (
                        (dirty_rows == dirty_then)
                        & (d_bits == d_then)
                        & (r_bits == r_then)
                    ).all(axis=1)
                    cycling = np.flatnonzero(repeats & dirty_rows.any(axis=1))
                    if len(cycling):
                        period = round_number - snapshot_round
                        ahead = self.max_rounds - round_number - carried[cycling]
                        periods = ahead // period
                        carried[cycling] += periods * period
                        recomputes[cycling] += periods * (
                            recomputes[cycling] - recomputes_then[cycling]
                        )
                        stops.update((round_number + ahead % period).tolist())
                if round_number & (round_number - 1) == 0:
                    snapshot_round = round_number
                    d_then, r_then = d_bits.copy(), r_bits.copy()
                    dirty_then = dirty_rows.copy()
                    recomputes_then = recomputes.copy()
                if round_number in stops:
                    # Tables still dirty at their own round max_rounds are
                    # cut off; the ones they were solved with run on.
                    stopping = dirty_rows.any(axis=1) & (
                        round_number + carried == self.max_rounds
                    )
                    cut_off |= stopping
                    dirty_rows[stopping] = False
            rounds += carried

            # Sending lists of every node of every table, from the final
            # values; the subscriber's stays empty.
            neighbors, d_via, r_via, eligible = self._candidates(
                d, r, budgets, node_cells
            )
        shape = (count, num, neighbors.shape[1])
        neighbors = neighbors.reshape(shape)
        d_via = d_via.reshape(shape)
        r_via = r_via.reshape(shape)
        lengths = eligible.sum(axis=1).reshape(count, num)
        lengths[np.arange(count), subscriber_cells % stride] = 0
        d = d.reshape(count, stride)
        r = r.reshape(count, stride)

        if self.perf is not None:
            self.perf.incr("control_plane.tables_solved_cold", count)
            self.perf.incr("control_plane.tables_unconverged", int(cut_off.sum()))
            self.perf.incr("control_plane.jacobi_rounds", int(rounds.sum()))
            self.perf.incr("control_plane.node_recomputes", int(recomputes.sum()))
            self.perf.incr(
                "control_plane.cycles_detected", int(np.count_nonzero(carried))
            )
            self.perf.incr("control_plane.rounds_skipped", int(carried.sum()))

        # Each table owns copies of its rows, so a table reused across
        # refreshes does not keep its whole batch alive. The neighbour
        # orders are all the data plane reads, so they are made up front;
        # full states are built when something asks for them.
        return [
            DrTable(
                publisher=publisher,
                subscriber=subscriber,
                deadline=deadline,
                states=_SolvedStates(
                    d[index, :num].copy(),
                    r[index, :num].copy(),
                    lengths[index].copy(),
                    neighbors[index].copy(),
                    d_via[index].copy(),
                    r_via[index].copy(),
                ),
                budgets=dict(enumerate(budgets[index, :num].tolist())),
                rounds=int(rounds[index]),
                converged=not cut_off[index],
                _orders={
                    node: tuple(row[:length])
                    for node, (row, length) in enumerate(
                        zip(neighbors[index].tolist(), lengths[index].tolist())
                    )
                },
            )
            for index, (publisher, subscriber, deadline) in enumerate(pairs)
        ]


def compute_dr_table(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    subscriber: int,
    deadline: float,
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> DrTable:
    """Solve the ``<d, r>`` recursion for one (publisher, subscriber) pair.

    Parameters
    ----------
    topology:
        The overlay graph.
    estimates:
        Per-link :class:`LinkEstimate` beliefs from the monitor.
    publisher / subscriber:
        Broker ids of the pair.
    deadline:
        ``D_PS``, the end-to-end delay requirement in seconds.
    m:
        Per-link transmission budget (Eq. 1).
    max_rounds:
        Hard bound on Jacobi rounds; default ``max(64, 2 * num_nodes)``
        (cyclic feedback damps geometrically, so the constant floor covers
        small graphs with weak links).
    tol:
        Convergence threshold on the max change of any ``d`` or ``r``.

    This is the one-shot convenience wrapper; to solve many pairs against
    the same estimates, build one :class:`ControlPlaneSolver` (or call
    :func:`compute_dr_tables`) so the link arrays and per-publisher
    Dijkstra are shared and the tables advance in one batch.
    """
    solver = ControlPlaneSolver(
        topology, estimates, m=m, max_rounds=max_rounds, tol=tol
    )
    return solver.solve([(publisher, subscriber, deadline)])[0]


def compute_dr_tables(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    pairs: Sequence[Tuple[int, float]],
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
    perf: Optional[PerfStats] = None,
) -> List[DrTable]:
    """Solve all subscribers of one publisher in a single batch.

    Parameters
    ----------
    pairs:
        ``(subscriber, deadline)`` tuples; the result list is aligned with
        this sequence.

    The results are bit-identical to calling :func:`compute_dr_table` once
    per pair.
    """
    solver = ControlPlaneSolver(
        topology, estimates, m=m, max_rounds=max_rounds, tol=tol, perf=perf
    )
    return solver.solve(
        [(publisher, subscriber, deadline) for subscriber, deadline in pairs]
    )
