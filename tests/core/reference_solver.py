"""The scalar ``<d, r>`` solve, kept as the bit-exact oracle of the kernel.

This is the per-node Python loop that :class:`repro.core.computation.
ControlPlaneSolver` batches into one NumPy kernel: one ``recompute`` +
``gate`` call per dirty node per block of a Gauss-Seidel sweep, a tuple sort
for Theorem 1, eagerly built :class:`NodeState` objects. The arithmetic, the
gate, the dirty-set propagation, the sweep order and the exit rule are the
kernel's, so the kernel must reproduce its tables, ``rounds``, the exhausted
``max_rounds`` error and all three counters exactly
(``tests/core/test_batch_solver.py``).

It shares nothing with the kernel but the Eq. 1 link model, the budget
Dijkstra call, the blocks (``sweep_blocks``, a function of the topology
alone) and the result types.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.core.computation import DrTable, NodeState, ViaNeighbor, sweep_blocks
from repro.core.linkmath import link_params_m
from repro.core.sending_list import order_sending_list
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.perf import PerfStats
from repro.util.errors import RoutingError


def reference_solve(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    subscriber: int,
    deadline: float,
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
    perf: Optional[PerfStats] = None,
) -> DrTable:
    """Solve one (publisher, subscriber) pair with the scalar sweep loop."""
    num = topology.num_nodes
    if max_rounds is None:
        max_rounds = max(1000, 2 * num)

    # Per-link m-transmission parameters (Eq. 1), symmetric.
    link_m: Dict[Edge, Tuple[float, float]] = {}
    for edge in topology.edges():
        estimate = estimates[edge]
        link_m[edge] = link_params_m(estimate.alpha, estimate.gamma, m)

    # Pre-resolve each node's usable links once: (neighbor, alpha_m,
    # gamma_m) with dead links (gamma 0 / alpha inf) dropped up front.
    links_of: List[List[Tuple[int, float, float]]] = [[] for _ in range(num)]
    for node in topology.nodes:
        entries = links_of[node]
        for neighbor in topology.neighbors(node):
            alpha_m, gamma_m = link_m[canonical_edge(node, neighbor)]
            if math.isfinite(alpha_m) and gamma_m > 0.0:
                entries.append((neighbor, alpha_m, gamma_m))
    neighbors_of = [topology.neighbors(node) for node in topology.nodes]
    blocks = [block.tolist() for block in sweep_blocks(topology)]

    # Remaining budget at each broker: D_XS = D_PS - shortest_delay(P, X),
    # with shortest delays taken over the monitor's alpha estimates.
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for edge in topology.edges():
        graph.add_edge(*edge, weight=estimates[edge].alpha)
    dist_from_publisher = nx.single_source_dijkstra_path_length(
        graph, publisher, weight="weight"
    )
    budgets = {
        node: deadline - dist_from_publisher.get(node, float("inf"))
        for node in topology.nodes
    }
    budget_of: List[float] = [budgets[node] for node in topology.nodes]

    inf = float("inf")
    d = [inf] * num
    r = [0.0] * num
    d[subscriber], r[subscriber] = 0.0, 1.0
    dirty = set(topology.nodes) - {subscriber}
    # The exit rule: each node's candidate set at its last evaluation, and
    # how often each (node, neighbour) left it; a neighbour that left three
    # times is banned for the rest of the solve.
    candidates_of: List[Set[int]] = [set() for _ in range(num)]
    exits: Dict[Tuple[int, int], int] = {}

    def eligible(node: int) -> List[Tuple[int, float, float, float, float]]:
        """Node's candidates from current d/r: (neighbour, alpha_m, gamma_m,
        d_i, r_i) in link order."""
        budget = budget_of[node]
        found = []
        for neighbor, alpha_m, gamma_m in links_of[node]:
            d_i, r_i = d[neighbor], r[neighbor]
            # Algorithm 1 line 4: neighbour must expect delivery within
            # the remaining budget; hopeless and banned neighbours cannot
            # help either.
            if not (d_i < budget) or r_i <= 0.0:
                continue
            if exits.get((node, neighbor), 0) >= 3:
                continue
            found.append((neighbor, alpha_m, gamma_m, d_i, r_i))
        return found

    def recompute(node: int) -> Tuple[float, float]:
        """One Eq. 2 + Theorem 1 + Eq. 3 evaluation from current d/r."""
        found = eligible(node)
        now = {neighbor for neighbor, *_ in found}
        for neighbor in candidates_of[node] - now:
            exits[node, neighbor] = exits.get((node, neighbor), 0) + 1
        candidates_of[node] = now
        candidates: List[Tuple[float, int, float, float]] = []
        for neighbor, alpha_m, gamma_m, d_i, r_i in found:
            d_via = alpha_m + d_i
            r_via = gamma_m * r_i
            candidates.append((d_via / r_via, neighbor, d_via, r_via))
        if not candidates:
            return inf, 0.0
        candidates.sort()
        survive = 1.0
        weighted = 0.0
        cumulative = 0.0
        for _, _, d_via, r_via in candidates:
            cumulative += d_via
            weighted += cumulative * r_via * survive
            survive *= 1.0 - r_via
        r_x = 1.0 - survive
        if r_x <= 0.0:
            return inf, 0.0
        return weighted / r_x, r_x

    recomputes = 0

    def gate(node: int) -> Optional[Tuple[int, float, float]]:
        """Recompute *node*; return its update if it moved beyond tol."""
        nonlocal recomputes
        recomputes += 1
        new_d, new_r = recompute(node)
        cur_d, cur_r = d[node], r[node]
        if abs(new_r - cur_r) > tol:
            return node, new_d, new_r
        if math.isinf(new_d) != math.isinf(cur_d):
            return node, new_d, new_r
        if math.isfinite(new_d) and abs(new_d - cur_d) > tol:
            return node, new_d, new_r
        return None

    sweeps = 0
    # Block Gauss-Seidel with dirty-set propagation: a block recomputes its
    # nodes that a neighbour's move dirtied since they were last evaluated,
    # from the values the blocks before it wrote; within a block every new
    # value is computed before any is written.
    while dirty:
        if sweeps == max_rounds:
            raise RoutingError(
                f"the <d, r> table of publisher {publisher} -> subscriber "
                f"{subscriber} (deadline {deadline!r}) did not converge in "
                f"{max_rounds} sweeps"
            )
        sweeps += 1
        for block in blocks:
            due = [node for node in block if node in dirty]
            dirty.difference_update(due)
            updates = [update for update in map(gate, due) if update is not None]
            for node, new_d, new_r in updates:
                d[node], r[node] = new_d, new_r
                dirty.update(neighbors_of[node])
            dirty.discard(subscriber)
    if perf is not None:
        perf.incr("control_plane.tables_solved_cold")
        perf.incr("control_plane.jacobi_rounds", sweeps)
        perf.incr("control_plane.node_recomputes", recomputes)
        perf.incr(
            "control_plane.candidates_banned",
            sum(count >= 3 for count in exits.values()),
        )

    def final_vias(node: int) -> Tuple[ViaNeighbor, ...]:
        entries = [
            (neighbor, alpha_m + d_i, gamma_m * r_i)
            for neighbor, alpha_m, gamma_m, d_i, r_i in eligible(node)
        ]
        ordered = order_sending_list(entries)
        return tuple(ViaNeighbor(*item) for item in ordered)

    states = {}
    for node in topology.nodes:
        vias = () if node == subscriber else final_vias(node)
        states[node] = NodeState(d=d[node], r=r[node], sending_list=vias)
    return DrTable(
        publisher=publisher,
        subscriber=subscriber,
        deadline=deadline,
        states=states,
        budgets=budgets,
        rounds=sweeps,
    )
