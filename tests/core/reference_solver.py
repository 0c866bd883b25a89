"""The scalar ``<d, r>`` solve, kept as the bit-exact oracle of the kernel.

This is the per-node Python loop :class:`repro.core.computation.
ControlPlaneSolver` ran before its Jacobi became one batched NumPy kernel:
one ``recompute`` + ``gate`` call per dirty node per round, a tuple sort for
Theorem 1, eagerly built :class:`NodeState` objects. The arithmetic, the
gate, the dirty-set propagation and the counters are unchanged, so the
kernel must reproduce its tables, ``rounds``, ``converged`` and both
counters exactly (``tests/core/test_batch_solver.py``).

It shares nothing with the kernel but the Eq. 1 link model, the budget
Dijkstra call and the result types.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.computation import DrTable, NodeState, ViaNeighbor
from repro.core.linkmath import link_params_m
from repro.core.sending_list import order_sending_list
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.perf import PerfStats


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
    """Solve one (publisher, subscriber) pair with the scalar Jacobi loop."""
    num = topology.num_nodes
    if max_rounds is None:
        max_rounds = max(64, 2 * num)

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

    def recompute(node: int) -> Tuple[float, float]:
        """One Eq. 2 + Theorem 1 + Eq. 3 evaluation from current d/r."""
        budget = budget_of[node]
        candidates: List[Tuple[float, int, float, float]] = []
        for neighbor, alpha_m, gamma_m in links_of[node]:
            d_i = d[neighbor]
            # Algorithm 1 line 4: neighbour must expect delivery within
            # the remaining budget; hopeless neighbours cannot help
            # either.
            r_i = r[neighbor]
            if not (d_i < budget) or r_i <= 0.0:
                continue
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

    rounds = 0
    converged = False
    # Jacobi with dirty-set propagation: a node is recomputed only when
    # one of its neighbours changed in the previous round.
    while rounds < max_rounds and dirty:
        rounds += 1
        updates: List[Tuple[int, float, float]] = []
        for node in dirty:
            update = gate(node)
            if update is not None:
                updates.append(update)
        dirty = set()
        for node, new_d, new_r in updates:
            d[node], r[node] = new_d, new_r
            dirty.update(neighbors_of[node])
        dirty.discard(subscriber)
        if not updates:
            converged = True
            break
    if not converged and not dirty:
        converged = True
    if perf is not None:
        perf.incr("control_plane.tables_solved_cold")
        perf.incr("control_plane.jacobi_rounds", rounds)
        perf.incr("control_plane.node_recomputes", recomputes)

    def final_vias(node: int) -> Tuple[ViaNeighbor, ...]:
        budget = budget_of[node]
        entries = []
        for neighbor, alpha_m, gamma_m in links_of[node]:
            d_i, r_i = d[neighbor], r[neighbor]
            if not (d_i < budget) or r_i <= 0.0:
                continue
            entries.append((neighbor, alpha_m + d_i, gamma_m * r_i))
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
        rounds=rounds,
        converged=converged,
    )
