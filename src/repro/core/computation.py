"""The distributed ``<d, r>`` recursion (Eq. 2 and Eq. 3) and its solver.

The paper seeds the recursion at the subscriber (``<0, 1>``) and lets every
broker recompute its own ``<d_X, r_X>`` from its neighbours' advertised
values, filtered by the delay budget and ordered by Theorem 1. Nothing in
Algorithm 1 fixes when a broker reads what its neighbours advertise; we
solve the recursion with deterministic block Gauss-Seidel sweeps (below).
Cyclic dependencies (two brokers on each other's sending lists) are
permitted, exactly as in the paper; ``r`` converges monotonically from
below and ``d`` stabilises within a few sweeps in practice. A table that is
still moving after ``max_rounds`` sweeps is an error.

The result, a :class:`DrTable`, is the per-(publisher, subscriber) control
state: each node's ``<d, r>`` plus its ordered sending list.

Batching and incrementality
---------------------------

Algorithm 1 re-runs for every monitoring cycle that moved the estimates
(when the data plane first reads a table after it, see
:mod:`repro.core.forwarding`), and most of the work of one (publisher,
subscriber) solve is *pair-independent*: the Eq. 1
``(alpha_m, gamma_m)`` link table and the adjacency depend only on the
estimates, and the budget Dijkstra depends only on the publisher.
:class:`ControlPlaneSolver` computes each of those artifacts exactly once
per refresh and then solves **the tables of the refresh in batched NumPy
kernels** (:meth:`ControlPlaneSolver.solve`): the ``<d, r>`` vectors of
the tables of a batch live in two ``(tables, nodes + 1)`` arrays, and one
block evaluation gathers the neighbour values of every dirty ``(table,
node)`` pair of the block, applies the budget filter, sorts the candidates
and folds Eq. 3 — for all tables at once, one C loop per arithmetic step
instead of one Python call per node per sweep per table. A single pair is
a batch of one.

Storage and chunks
------------------

A batch's kernel buffers grow as tables x nodes x max degree, so
``solve`` cuts its pairs into consecutive chunks of at most
:data:`_CHUNK_CELLS` such cells and runs one batch per chunk. A table is
independent of its batch mates, so where the cuts fall changes no table,
no error and no summed work counter; a refresh of a few hundred tables on
a few hundred nodes is one chunk.

A solved table keeps only what cannot be derived: its final ``d`` and
``r`` rows and, per node, the sending list's length and its link columns
in Theorem 1 order, in the narrowest integer dtype that holds the
degree. It shares the solver's per-link ``(neighbour, alpha_m, gamma_m)``
arrays, which nothing writes after the solver is built, and its
publisher's distance row. The rest is derived on access, with the
kernel's own operations: a :class:`NodeState` recomputes ``d_via = alpha
+ d_i`` and ``r_via = gamma * r_i`` from the rows, a budget is ``deadline
- distance``, and a sending list is read through the column order and
kept once asked for. Nothing derived is cached but the sending lists the
data plane reads.

The kernel is bit-identical to the scalar per-node loop it batches (kept
as the oracle in ``tests/core/reference_solver.py``), by construction:

* **operation order** — every float is produced by the same IEEE-754
  double operations in the same order: ``alpha + d_i``, ``gamma * r_i``,
  their quotient, and a fold over the sorted positions that performs
  Eq. 3's adds and multiplies position by position, in place. Slots that
  hold no candidate (padding, dead links, neighbours outside the budget)
  carry ``d_via = r_via = 0`` and so contribute ``+ 0.0`` and ``* 1.0``,
  which are exact;
* **stable tie-break** — the link columns are laid out in neighbour-id
  order and the sort is stable, so equal ``d/r`` ratios fall in
  neighbour-id order exactly as the scalar ``(ratio, neighbour)`` tuple
  sort placed them;
* **same gate, same dirty sets, same exits** — a node's update is
  accepted by the same three-clause tolerance test, each table keeps its
  own dirty mask (neighbours of the nodes that moved, never the
  subscriber) and its own exit counts, so every table runs the sweeps,
  and evaluates the nodes, the scalar loop would have: ``rounds`` and the
  ``jacobi_rounds`` / ``node_recomputes`` / ``candidates_banned``
  counters repeat exactly. One kind of evaluation is counted, not run: in
  sweep 1 every node but the subscriber is dirty, yet a node is evaluated
  only once a live neighbour holds ``r > 0`` — the subscriber or a node
  that moved earlier in the sweep. Any other node has no candidate and
  evaluates to the ``<inf, 0>`` it already holds.

A block evaluation allocates nothing of its ``(cells, max_degree)`` shape:
the gathers, Eq. 2, the ratio and the sorted columns are written into
buffers made once per batch. Allocated afresh, about ten such arrays per
evaluation went back to the operating system and were faulted in again
every time, which cost more than the arithmetic on them.

One further acceleration sits on top — **dirty-edge relevance**: a
changed edge can only influence a table if at least one endpoint has a
positive delay budget (``dist(P, endpoint) < deadline``); a broker whose
budget is non-positive provably holds ``<inf, 0>`` forever and its links
are never read. Tables no changed edge can reach are reused verbatim
(bit-identical, the solve is skipped entirely). The test needs one number
per publisher, the delay to the nearest changed endpoint
(:meth:`ControlPlaneSolver.change_distance`), which every deadline of
that publisher's tables is compared with.

Earlier versions also *replayed* the previous solve's recorded trajectory,
recomputing only the changed edges' influence cone. It was removed when
the kernel landed: a replay is a per-table Python loop that cannot run
inside the batch, a sampled refresh moves every estimate so the cone is
the whole graph, and even in its best regime (7 of 640 estimates changed)
it lost to the kernel — see ``docs/ALGORITHMS.md``. A naive warm start
(seeding the sweeps from the previous ``<d, r>`` values) was never an
option: the tolerance-gated iteration parks values within ``tol`` of
budget-eligibility boundaries, so a warm fixed point within ``tol`` of the
cold one can still flip a strict ``d_i < budget`` comparison and change a
sending list.

Sweep order and the exit rule
-----------------------------

The nodes are split into blocks once per solver, from the topology alone
(:func:`sweep_blocks`): a greedy colouring in node-id order, folded onto
one block per 16 nodes. A sweep evaluates the blocks in that fixed order,
so each block reads the values the blocks before it wrote in the same
sweep; within a block every new value is computed before any is written.
A node dirtied by a block after its own is evaluated in the same sweep,
one dirtied by its own or an earlier block in the next. A table stops at
the end of the first sweep that leaves nothing dirty.

Budget eligibility is a strict comparison on values that feed back through
cyclic sending lists, so a neighbour whose budget test straddles the
boundary can be pushed in and out of a broker's candidate set for ever:
under lock-step rounds a minority of tables fell into such a limit cycle.
The **exit rule** ends it: within one solve, a neighbour that leaves a
broker's candidate set for the third time stays out of it, in the sweeps
and in the sending list shipped. Each (table, node, link) holds one int8
of state, the number of times the link entered or left the candidate set,
so candidate sets change finitely often, and every table measured then
reaches a fixed point. Tables whose candidates never leave three times are untouched by
the rule. A few tables have two fixed points (two brokers each of which
can hold the other as a backup, but not both at once); the sweep order
picks one, deterministically. ``control_plane.candidates_banned`` counts
the (table, node, neighbour) exclusions the rule made.
"""

from __future__ import annotations

import itertools
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
from repro.util.errors import RoutingError
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
    """The ``states`` of a solved table, derived from its compact rows.

    A table keeps its final ``d`` and ``r`` rows, each node's sending-list
    length and its Theorem 1 column order (which of the node's link columns
    come first), and a reference to the solver's per-link arrays. A
    :class:`NodeState` is derived from those on every access, with the
    kernel's own operations (``alpha + d_i``, ``gamma * r_i``), so it is
    bit-identical to the one the final pass sorted; nothing is cached, so
    reading every state (a sanitizer pass) retains nothing. Being a
    :class:`~collections.abc.Mapping`, it iterates, compares and copies
    (``dict(states)``) like the plain dict of a hand-built table.
    """

    __slots__ = ("_d", "_r", "_lengths", "_columns", "_links")

    def __init__(
        self,
        d: np.ndarray,
        r: np.ndarray,
        lengths: np.ndarray,
        columns: np.ndarray,
        links: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self._d = d
        self._r = r
        self._lengths = lengths
        self._columns = columns
        # The solver's (usable neighbour, alpha_m, gamma_m) per link column,
        # shared by every table of the solver and never written.
        self._links = links

    def _sorted(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """*node*'s sending-list columns and neighbours, in Theorem 1 order."""
        if node not in range(len(self._d)):
            raise KeyError(node)
        columns = self._columns[node, : self._lengths[node]]
        return columns, self._links[0][node].take(columns)

    def neighbor_order(self, node: int) -> Tuple[int, ...]:
        """``self[node].neighbor_order``, without building the state."""
        return tuple(self._sorted(node)[1].tolist())

    def __getitem__(self, node: int) -> NodeState:
        columns, neighbors = self._sorted(node)
        _, alpha, gamma = self._links
        d_via = alpha[node].take(columns) + self._d.take(neighbors)
        r_via = gamma[node].take(columns) * self._r.take(neighbors)
        return NodeState(
            d=self._d[node].item(),
            r=self._r[node].item(),
            sending_list=tuple(
                map(ViaNeighbor, neighbors.tolist(), d_via.tolist(), r_via.tolist())
            ),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._d)))

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Budgets(Mapping[int, float]):
    """The ``budgets`` of a solved table: ``deadline - distance`` per node.

    The distance row is the publisher's, shared by all of its tables; each
    budget is the same subtraction the solve made.
    """

    __slots__ = ("_deadline", "_distances")

    def __init__(self, deadline: float, distances: np.ndarray) -> None:
        self._deadline = float(deadline)
        self._distances = distances

    def __getitem__(self, node: int) -> float:
        if node not in range(len(self._distances)):
            raise KeyError(node)
        return self._deadline - self._distances[node].item()

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._distances)))

    def __len__(self) -> int:
        return len(self._distances)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class DrTable:
    """Control state of all brokers for one (publisher, subscriber) pair."""

    publisher: int
    subscriber: int
    deadline: float
    states: Mapping[int, NodeState]
    budgets: Mapping[int, float]
    rounds: int
    #: Per-node :meth:`sending_list` results, filled on first use. The
    #: forwarding data plane asks for the same node's list once per
    #: dispatched destination, and reads it here directly.
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
            states = self.states
            if isinstance(states, _SolvedStates):
                order = states.neighbor_order(node)
            else:
                order = states[node].neighbor_order
            self._orders[node] = order
        return order

    def budget(self, node: int) -> float:
        """``D_XS``: the remaining delay requirement at *node*."""
        return self.budgets[node]

    def reachable(self, node: int) -> bool:
        """Whether *node* expects to deliver within budget at all."""
        return self.states[node].r > 0.0


#: The exit rule: a neighbour that has left a broker's candidate set three
#: times in one solve stays out of it. Every exit follows an entry, so the
#: third exit is the sixth flip of its candidate bit.
_BANNED_FLIPS = 6

#: ``sweep_blocks`` folds the colouring onto one Gauss-Seidel block per this
#: many nodes: a block costs a batched evaluation whatever its size, so a
#: small graph sweeps few blocks.
_NODES_PER_BLOCK = 16

#: ``solve`` runs its pairs in consecutive chunks of at most this many
#: ``(table, node, link column)`` cells, about 43 MiB of kernel buffers, so
#: a refresh's peak memory stops growing with its table count. Tables are
#: independent of their batch mates, so the chunking changes no result.
_CHUNK_CELLS = 1 << 20


def sweep_blocks(topology: Topology) -> List[np.ndarray]:
    """The Gauss-Seidel blocks of *topology*, in sweep order.

    A greedy colouring in node-id order (each node takes the smallest colour
    no lower-numbered neighbour holds), folded by colour modulo onto one
    block per :data:`_NODES_PER_BLOCK` nodes, at least one; each block
    lists its nodes in id order. It reads the topology alone, so every
    table of every solve over it sweeps the same blocks in the same order.
    """
    colours: List[int] = []
    for node in topology.nodes:
        taken = {colours[n] for n in topology.neighbors(node) if n < node}
        colours.append(next(c for c in itertools.count() if c not in taken))
    count = max(1, topology.num_nodes // _NODES_PER_BLOCK)
    folded = np.array(colours, dtype=np.intp) % count
    blocks = [np.flatnonzero(folded == block) for block in range(count)]
    return [block for block in blocks if len(block)]


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
            max_rounds = max(1000, 2 * num_nodes)
        require(max_rounds >= 1, f"max_rounds must be >= 1, got {max_rounds}")
        # The round-1 wavefront and the two-clause gate both rely on it.
        require(0.0 <= tol < math.inf, f"tol must be finite and >= 0, got {tol}")
        self.max_rounds = max_rounds
        self.tol = tol
        self.perf = perf
        self._blocks = sweep_blocks(topology)

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

        # What a solved table reads of the links: never written again.
        self._links = (self._usable, self._alpha, self._gamma)

        self._weight_graph = _estimate_weight_graph(topology, estimates)
        self._dist_cache: Dict[int, Dict[int, float]] = {}
        self._distance_rows: Dict[int, np.ndarray] = {}

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

    def _distance_row(self, publisher: int) -> np.ndarray:
        """:meth:`distances_from` as a per-node row, inf where unreachable;
        one row per publisher, shared by all of its tables."""
        row = self._distance_rows.get(publisher)
        if row is None:
            dist = self.distances_from(publisher)
            row = np.array([dist.get(node, math.inf) for node in self.topology.nodes])
            self._distance_rows[publisher] = row
        return row

    def change_distance(self, publisher: int, changed_edges: Iterable[Edge]) -> float:
        """The shortest delay from *publisher* to an endpoint of a changed
        edge (inf when none is reachable): a table of *publisher* is
        affected by the change exactly when its deadline exceeds it, so one
        scan of the changed edges serves all of the publisher's tables.

        An edge both of whose endpoints have non-positive budget
        (``dist(P, endpoint) >= deadline``) is provably inert: those
        brokers hold ``<inf, 0>`` in every round regardless of the edge's
        parameters, and no other broker ever reads the edge. Only valid
        for gamma-only changes (alpha changes move the distances
        themselves)."""
        dist = self.distances_from(publisher)
        inf = math.inf
        return min(
            (min(dist.get(u, inf), dist.get(v, inf)) for u, v in changed_edges),
            default=inf,
        )

    # ------------------------------------------------------------------
    def _candidates(
        self,
        d: np.ndarray,
        r: np.ndarray,
        budgets: np.ndarray,
        flips: np.ndarray,
        cells: np.ndarray,
        nodes: np.ndarray,
        buffers: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 2, the budget filter and the Theorem 1 order, batched.

        *cells* are flat ``table * (num_nodes + 1) + node`` positions in
        *d*, *r* and *budgets*, *nodes* their node ids and *flips* their
        exit-rule rows (``_solve_chunk``). Over each cell's link columns:
        ``eligible``, ``(cells, max_degree)``, marks the real candidates in
        column order; ``order`` holds flat positions into such rows, sorted
        ascending by ``d_via / r_via`` (stable, so ties stay in neighbour-id
        order), and ``d_via`` and ``r_via`` are taken through it. Those
        three are transposed, ``(max_degree, cells)``: sorted position k of
        every cell is one contiguous row. The rest — padding, dead links,
        neighbours that do not expect delivery within the node's budget
        (Algorithm 1 line 4) or at all, and neighbours the exit rule
        banned — sort last and carry ``d_via = r_via = 0``. Everything but
        the sort itself is computed in place in *buffers*
        (``_solve_chunk``). Called inside ``np.errstate``: the ratio of a
        non-candidate is 0/0.
        """
        shape = (len(cells), self._usable.shape[1])
        size = shape[0] * shape[1]
        index, floats, masks = buffers
        via = index[:size].reshape(shape)
        d_i, r_i, d_via, r_via = floats[:, :size].reshape(4, *shape)
        eligible, absent = masks[:, :size].reshape(2, *shape)
        # Indices are in range, and mode="clip" lets take() write to out
        # without an intermediate copy.
        self._usable.take(nodes, axis=0, out=via, mode="clip")
        via += (cells - nodes)[:, None]
        d.take(via, out=d_i, mode="clip")
        r.take(via, out=r_i, mode="clip")
        np.less(d_i, budgets.take(cells)[:, None], out=eligible)
        eligible &= np.greater(r_i, 0.0, out=absent)
        eligible &= np.less(flips, _BANNED_FLIPS, out=absent)
        np.logical_not(eligible, out=absent)
        # Eq. 2, zeroed where there is no candidate: r_via is finite, so
        # multiplying by the mask is exact; d_via may be inf there.
        self._alpha.take(nodes, axis=0, out=d_via, mode="clip")
        d_via += d_i
        np.copyto(d_via, 0.0, where=absent)
        self._gamma.take(nodes, axis=0, out=r_via, mode="clip")
        r_via *= r_i
        r_via *= eligible
        # Non-candidates divide 0/0 and sort last as inf (the stable sort
        # is markedly slower on rows that hold nan).
        ratio = np.divide(d_via, r_via, out=d_i)
        np.copyto(ratio, math.inf, where=absent)
        order = np.argsort(ratio, axis=1, kind="stable")
        # The sort's rows become flat positions, transposed in the same
        # pass; take() on flat positions is several times faster than
        # take_along_axis.
        transposed = shape[::-1]
        order = np.add(
            order.T,
            np.arange(0, size, shape[1]),
            out=index[:size].reshape(transposed),
        )
        d_sorted = d_via.take(order, out=d_i.reshape(transposed), mode="clip")
        r_sorted = r_via.take(order, out=r_i.reshape(transposed), mode="clip")
        return order, d_sorted, r_sorted, eligible

    def _evaluate(
        self,
        d: np.ndarray,
        r: np.ndarray,
        budgets: np.ndarray,
        flips: np.ndarray,
        cells: np.ndarray,
        nodes: np.ndarray,
        buffers: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One block's work: the new ``<d, r>`` of *cells*.

        Candidates as in :meth:`_candidates`, folded by Eq. 3 position by
        position along the sending list, in place: per position
        ``cumulative += d_via; weighted += cumulative * r_via * survive;
        survive *= 1 - r_via`` — the scalar fold's operations in its order —
        up to the longest candidate list: past it every cell would add
        ``+ 0.0`` and multiply by ``1.0``, which are exact. The exit rule's
        state moves with the evaluation: every column that entered or left
        the candidate set since the cell's previous evaluation counts one
        more flip in *flips*. :meth:`_solve_chunk` calls this exactly once
        per block of a sweep that has dirty cells, and nothing else calls
        it.
        """
        rows = flips.take(cells, axis=0)
        _, d_sorted, r_sorted, eligible = self._candidates(
            d, r, budgets, rows, cells, nodes, buffers
        )
        # A column is a candidate after an odd number of flips.
        step = np.bitwise_and(rows, 1)
        step ^= eligible
        if step.any():
            rows += step
            flips[cells] = rows
        size = len(cells)
        survive = np.ones(size)
        weighted = np.zeros(size)
        cumulative = np.zeros(size)
        term = np.empty(size)
        longest = np.count_nonzero(eligible, axis=1).max()
        for d_via, r_via in zip(d_sorted[:longest], r_sorted[:longest]):
            cumulative += d_via
            np.multiply(cumulative, r_via, out=term)
            term *= survive
            weighted += term
            np.subtract(1.0, r_via, out=term)
            survive *= term
        r_x = np.subtract(1.0, survive, out=survive)
        reaches = r_x > 0.0
        new_d = np.full(size, math.inf)
        np.divide(weighted, r_x, out=new_d, where=reaches)
        return new_d, np.where(reaches, r_x, 0.0)

    def solve(self, pairs: Sequence[Tuple[int, int, float]]) -> List[DrTable]:
        """Solve ``(publisher, subscriber, deadline)`` pairs in batches.

        The pairs run in consecutive chunks of at most
        :data:`_CHUNK_CELLS` cells. Within a chunk all tables advance
        through the same Gauss-Seidel sweeps together; each stops on its
        own, once nothing is left dirty. The result list is aligned with
        *pairs*, and every table is independent of what else was in the
        batch. A table still dirty after ``max_rounds`` sweeps raises
        :class:`RoutingError` for the first such table, and then no work
        counter moves.
        """
        pairs = list(pairs)
        num = self.topology.num_nodes
        for publisher, subscriber, deadline in pairs:
            require(0 <= publisher < num, f"no broker {publisher}")
            require(0 <= subscriber < num, f"no broker {subscriber}")
            require_positive(deadline, "deadline")
        chunk = max(1, _CHUNK_CELLS // (num * self._usable.shape[1]))
        tables: List[DrTable] = []
        work: List[Tuple[int, int, int]] = []
        for start in range(0, len(pairs), chunk):
            solved, counts = self._solve_chunk(pairs[start : start + chunk])
            tables += solved
            work.append(counts)
        if self.perf is not None and tables:
            rounds, recomputes, banned = map(sum, zip(*work))
            self.perf.incr("control_plane.chunks", len(work))
            self.perf.incr("control_plane.tables_solved_cold", len(tables))
            self.perf.incr("control_plane.jacobi_rounds", rounds)
            self.perf.incr("control_plane.node_recomputes", recomputes)
            self.perf.incr("control_plane.candidates_banned", banned)
        return tables

    def _solve_chunk(
        self, pairs: Sequence[Tuple[int, int, float]]
    ) -> Tuple[List[DrTable], Tuple[int, int, int]]:
        """Solve validated *pairs* as one batch: the tables and the batch's
        ``(jacobi_rounds, node_recomputes, candidates_banned)``."""
        num = self.topology.num_nodes
        count = len(pairs)
        inf = math.inf
        tol = self.tol
        width = self._usable.shape[1]

        # The state of the whole batch is flat: cell ``t * stride + x`` is
        # node x of table t, and cell ``t * stride + num`` is table t's
        # sentinel neighbour (padded and dead links), pinned at <inf, 0>.
        stride = num + 1
        first_cell = np.arange(count) * stride
        subscribers = np.array([pair[1] for pair in pairs], dtype=np.intp)
        subscriber_cells = first_cell + subscribers
        sentinel_cells = first_cell + num

        # Remaining budget at each broker: D_XS = D_PS - shortest_delay(P, X),
        # with shortest delays taken over the monitor's alpha estimates.
        # The sentinel, like an unreachable broker, is infinitely far.
        budgets = np.empty((count, stride))
        budgets[:, num] = -inf
        for index, (publisher, _, deadline) in enumerate(pairs):
            budgets[index, :num] = deadline - self._distance_row(publisher)

        d = np.full(count * stride, inf)
        r = np.zeros(count * stride)
        d[subscriber_cells] = 0.0
        r[subscriber_cells] = 1.0
        dirty = np.zeros(count * stride, dtype=bool)
        dirty_rows = dirty.reshape(count, stride)
        # The exit rule (module docstring), per (cell, link column): how
        # often the column entered or left the cell's candidate set. Odd
        # means it was a candidate at the cell's last evaluation; at
        # _BANNED_FLIPS it has left three times and is banned.
        flips = np.zeros((count * stride, width), dtype=np.int8)
        rounds = np.zeros(count, dtype=np.intp)

        # Sweep 1 is a wavefront. Every node but the subscriber starts dirty,
        # but only the subscriber holds r > 0, so a node can have a candidate
        # only if it is a live neighbour of the subscriber or of a node that
        # moved earlier in the sweep: every other node evaluates to the
        # <inf, 0> it already holds and cannot move. So the subscribers'
        # live neighbours start dirty, moves propagate as in every sweep,
        # and all num - 1 evaluations are counted.
        front = self._usable.take(subscribers, axis=0)
        live = (front != num) & (front != subscribers[:, None])
        dirty[(front + first_cell[:, None])[live]] = True
        # Every table runs sweep 1 unless its subscriber is the only node.
        running = np.arange(count if num > 1 else 0)
        recomputes = len(running) * (num - 1)
        # The (cells, max_degree) arrays of every block and of the final
        # pass are views of these flat buffers: index, four float, two mask
        # blocks (module docstring).
        size = count * num * width
        buffers = (
            np.empty(size, dtype=np.intp),
            np.empty((4, size)),
            np.empty((2, size), dtype=bool),
        )

        # Non-candidates divide 0/0 (``_candidates``), and the gate subtracts
        # inf from inf for nodes that stay unreached.
        with np.errstate(divide="ignore", invalid="ignore"):
            # Block Gauss-Seidel with dirty-set propagation: a block
            # evaluates its nodes that a neighbour's move dirtied since
            # they were last evaluated, from the values the blocks before
            # it wrote this sweep; within a block every new value is
            # computed before any is written.
            for sweep in range(1, self.max_rounds + 1):
                if not len(running):
                    break
                rounds[running] = sweep
                for block in self._blocks:
                    dirty_block = dirty_rows[np.ix_(running, block)]
                    positions, columns = np.nonzero(dirty_block)
                    if not len(positions):
                        continue
                    nodes = block.take(columns)
                    cells = running.take(positions) * stride + nodes
                    dirty[cells] = False
                    if sweep > 1:
                        recomputes += len(cells)
                    new_d, new_r = self._evaluate(
                        d, r, budgets, flips, cells, nodes, buffers
                    )
                    # A node moves only if it changed beyond tol. With tol
                    # finite this is the scalar three-clause gate: an
                    # inf/finite flip is an infinite change and inf - inf
                    # compares false.
                    moved = np.abs(new_r - r.take(cells)) > tol
                    moved |= np.abs(new_d - d.take(cells)) > tol
                    cells = cells[moved]
                    nodes = nodes[moved]
                    d[cells] = new_d[moved]
                    r[cells] = new_r[moved]
                    # Their neighbours are dirty, never a sentinel or a
                    # subscriber.
                    targets = self._neighbors.take(nodes, axis=0)
                    targets += (cells - nodes)[:, None]
                    dirty[targets] = True
                    dirty[sentinel_cells] = False
                    dirty[subscriber_cells] = False
                running = running[dirty_rows.take(running, axis=0).any(axis=1)]
            if len(running):
                publisher, subscriber, deadline = pairs[running[0]]
                raise RoutingError(
                    f"the <d, r> table of publisher {publisher} -> subscriber "
                    f"{subscriber} (deadline {deadline!r}) did not converge in "
                    f"{self.max_rounds} sweeps"
                )

            # Sending lists of every node of every table, from the final
            # values and bans; the subscriber's stays empty.
            nodes = np.tile(np.arange(num), count)
            cells = (first_cell[:, None] + np.arange(num)).ravel()
            order, _, _, eligible = self._candidates(
                d, r, budgets, flips.take(cells, axis=0), cells, nodes, buffers
            )
        # A table keeps, per node, the sending list's length and its link
        # columns in Theorem 1 order, in the narrowest dtype that holds
        # them; everything else of a NodeState is derived on access.
        small = np.min_scalar_type(width)
        lengths = eligible.sum(axis=1).astype(small).reshape(count, num)
        lengths[np.arange(count), subscribers] = 0
        columns = (order.T % width).astype(small).reshape(count, num, width)
        banned = int(np.count_nonzero(flips == _BANNED_FLIPS))
        # Free the batch's buffers before the tables copy their rows out.
        del buffers, order, eligible, flips
        d = d.reshape(count, stride)
        r = r.reshape(count, stride)

        # Each table owns copies of its rows, so a table reused across
        # refreshes does not keep its whole batch alive.
        tables = [
            DrTable(
                publisher=publisher,
                subscriber=subscriber,
                deadline=deadline,
                states=_SolvedStates(
                    d[index, :num].copy(),
                    r[index, :num].copy(),
                    lengths[index].copy(),
                    columns[index].copy(),
                    self._links,
                ),
                budgets=_Budgets(deadline, self._distance_row(publisher)),
                rounds=int(rounds[index]),
            )
            for index, (publisher, subscriber, deadline) in enumerate(pairs)
        ]
        return tables, (int(rounds.sum()), recomputes, banned)


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
        Sweeps after which a table that is still moving raises
        :class:`RoutingError`; default ``max(1000, 2 * num_nodes)``. Cyclic
        feedback damps geometrically but slowly on weak links: an 8-node
        graph with ``gamma`` in [0.5, 1] and a loose deadline takes up to
        about 200 sweeps.
    tol:
        Convergence threshold on the max change of any ``d`` or ``r``.

    This is the one-shot convenience wrapper; to solve many pairs against
    the same estimates, build one :class:`ControlPlaneSolver` so the link
    arrays and per-publisher Dijkstra are shared and the tables advance in
    one batch.
    """
    solver = ControlPlaneSolver(
        topology, estimates, m=m, max_rounds=max_rounds, tol=tol
    )
    return solver.solve([(publisher, subscriber, deadline)])[0]
