"""Equivalence of the batched control-plane solver.

The control plane has two acceleration layers — one batched NumPy kernel
that solves every table of a refresh in lock-step
(:class:`ControlPlaneSolver`), and dirty-edge table reuse — and both must
be behaviourally invisible: the kernel's tables are bit-identical to the
scalar loop it batches (``tests/core/reference_solver.py``), down to
``rounds``, the exhausted ``max_rounds`` error and the work counters; a
table does not depend on what else was in its batch; and reused tables are
exactly what a from-scratch solve would produce.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import computation
from repro.core.computation import (
    ControlPlaneSolver,
    ViaNeighbor,
    aggregate_dr,
    compute_dr_table,
)
from repro.core.linkmath import link_params_m
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, build_topology
from repro.extensions.churn import ChurnProcess
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkEstimate, LinkMonitor
from repro.overlay.topology import (
    Topology,
    canonical_edge,
    erdos_renyi,
    full_mesh,
    random_regular,
    ring,
)
from repro.perf import PerfStats
from repro.pubsub.topics import generate_workload
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import ConfigurationError, RoutingError
from tests.conftest import make_topology, networkx_graph
from tests.core.reference_solver import reference_solve

WORK_COUNTERS = (
    "control_plane.tables_solved_cold",
    "control_plane.jacobi_rounds",
    "control_plane.node_recomputes",
    "control_plane.candidates_banned",
)


def build_world(seed, mode, loss_rate=0.02, num_nodes=30, degree=4):
    """A topology + sampled/analytic monitor whose estimates can be refreshed."""
    rng = np.random.default_rng(seed)
    topology = random_regular(num_nodes, degree, rng)
    streams = RandomStreams(seed)
    sim = Simulator()
    network = OverlayNetwork(sim, topology, streams, loss_rate=loss_rate)
    monitor = LinkMonitor(topology, network, streams, mode=mode)
    return topology, monitor


def make_pairs(topology, publishers=(0, 1, 2), per_publisher=3, factor=2.5):
    """(publisher, subscriber, deadline) pairs spread over *publishers*."""
    pairs = []
    subscriber = len(publishers)
    for index in range(per_publisher * len(publishers)):
        publisher = publishers[index % len(publishers)]
        deadline = factor * topology.shortest_delay(publisher, subscriber)
        pairs.append((publisher, subscriber, deadline))
        subscriber += 2
    return pairs


def assert_kernel_equals_reference(topology, estimates, pairs, **solver_args):
    """Solve *pairs* as one batch and against the loop; everything must match.

    A batch with a table that exhausts ``max_rounds`` raises the loop's error
    for the first such table; the tables are then ``None``.
    """
    kernel_perf, loop_perf = PerfStats(), PerfStats()
    solver = ControlPlaneSolver(topology, estimates, perf=kernel_perf, **solver_args)
    references = []
    for publisher, subscriber, deadline in pairs:
        try:
            references.append(
                reference_solve(
                    topology, estimates, publisher, subscriber, deadline,
                    perf=loop_perf, **solver_args,
                )
            )
        except RoutingError as error:
            with pytest.raises(RoutingError) as raised:
                solver.solve(pairs)
            assert str(raised.value) == str(error)
            return solver, None
    tables = solver.solve(pairs)
    assert len(tables) == len(pairs)
    for table, reference in zip(tables, references):
        assert table.rounds == reference.rounds
        assert table == reference
        for node in topology.nodes:  # what the data plane reads
            assert table.sending_list(node) == reference.sending_list(node)
    for counter in WORK_COUNTERS:
        assert kernel_perf.get(counter) == loop_perf.get(counter), counter
    return solver, tables


class TestBatchedColdSolves:
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_per_pair(self, mode, seed):
        """Batched solving is the identical computation, reorganised."""
        topology, monitor = build_world(seed, mode)
        estimates = monitor.estimates()
        pairs = make_pairs(topology)
        for publisher in {p for p, _, _ in pairs}:
            pub_pairs = [(s, dl) for p, s, dl in pairs if p == publisher]
            batched = ControlPlaneSolver(topology, estimates).solve(
                [(publisher, subscriber, dl) for subscriber, dl in pub_pairs]
            )
            for table, (subscriber, deadline) in zip(batched, pub_pairs):
                reference = compute_dr_table(
                    topology, estimates, publisher, subscriber, deadline
                )
                assert table == reference

    def test_one_dijkstra_per_publisher(self):
        """The budget Dijkstra is shared across a publisher's subscribers."""
        topology, monitor = build_world(0, "analytic")
        perf = PerfStats()
        solver = ControlPlaneSolver(topology, monitor.estimates(), perf=perf)
        solver.solve(make_pairs(topology))
        assert perf.get("control_plane.dijkstra_calls") == 3
        assert perf.get("control_plane.tables_solved_cold") == 9


class TestIncrementalRefresh:
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exactly_matches_from_scratch(self, mode, seed):
        """Reuse + batched re-solve across two chained refreshes equals the loop."""
        topology, monitor = build_world(seed, mode)
        pairs = make_pairs(topology)
        previous = dict(
            zip(pairs, ControlPlaneSolver(topology, monitor.estimates()).solve(pairs))
        )

        for _ in range(2):  # chain: reused tables survive into the next refresh
            monitor.refresh()
            changed = monitor.last_changed
            estimates = monitor.estimates()
            solver = ControlPlaneSolver(topology, estimates)
            affected = [
                pair for pair in pairs
                if pair[2] > solver.change_distance(pair[0], changed)
            ]
            previous.update(zip(affected, solver.solve(affected)))
            for pair in pairs:
                assert previous[pair] == reference_solve(topology, estimates, *pair)

    def test_unaffected_table_detected_and_exact(self):
        """A changed edge outside the deadline horizon is provably inert."""
        topology, monitor = build_world(3, "analytic")
        solver0 = ControlPlaneSolver(topology, monitor.estimates())
        publisher, subscriber = 0, topology.neighbors(0)[0]
        # Deadline just beyond the direct link: only nearby brokers have a
        # positive budget, so a far edge cannot influence the table.
        deadline = 1.5 * topology.shortest_delay(publisher, subscriber)
        (table,) = solver0.solve([(publisher, subscriber, deadline)])
        distances = solver0.distances_from(publisher)
        far_edges = [
            (u, v)
            for u, v in topology.edges()
            if min(distances[u], distances[v]) >= deadline
        ]
        assert far_edges, "scenario needs at least one out-of-horizon edge"
        assert deadline <= solver0.change_distance(publisher, far_edges)
        # And indeed re-solving from scratch reproduces the table exactly.
        assert solver0.solve([(publisher, subscriber, deadline)]) == [table]

    def test_one_change_distance_decides_every_deadline(self):
        """The publisher's distance to the nearest changed endpoint decides
        each table as a scan of the changed edges against its deadline
        does: an edge counts when either endpoint is strictly inside."""
        topology, monitor = build_world(3, "analytic")
        solver = ControlPlaneSolver(topology, monitor.estimates())
        dist = solver.distances_from(0)
        edges = sorted(topology.edges())
        deadlines = sorted(set(dist.values())) + [math.inf]
        for changed in ([], edges[:1], edges[10:14], edges[-3:], edges):
            nearest = solver.change_distance(0, changed)
            for deadline in deadlines:
                scan = any(dist[u] < deadline or dist[v] < deadline for u, v in changed)
                assert (nearest < deadline) == scan


def cycling_ring():
    """A 7-ring on which the pair ``(1, 4, 0.2)`` at ``m = 3`` fell into a
    limit cycle under lock-step Jacobi rounds."""
    rng = np.random.default_rng(0)
    topology = ring(7, rng)
    estimates = {
        edge: LinkEstimate(
            alpha=topology.delay(*edge), gamma=float(rng.uniform(0.1, 1.0))
        )
        for edge in topology.edges()
    }
    return topology, estimates


@st.composite
def solver_cases(draw):
    """A small world, its estimates, a batch of pairs and solver arguments.

    Covers what the kernel's masking, tie-breaking, sweep-1 wavefront,
    sweep order and per-table bookkeeping have to get right: graphs of
    one Gauss-Seidel block and of several (32 nodes and up); dead links
    (``gamma`` 0 or ``alpha`` inf); a broker cut off entirely, also as a
    subscriber, whose sweep-1 wavefront is then empty; a leaf hanging off
    a subscriber;
    irregular degrees, so rows carry padding columns; uniform links whose
    ``d/r`` ratios tie exactly; a deadline so short that no broker but the
    publisher (whose budget is the whole deadline) has a positive budget;
    ``m`` > 1; a ``max_rounds`` that some tables exhaust; and a table that
    never converged under lock-step Jacobi rounds, batched with others.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(
        st.sampled_from(["regular", "blocks", "ring", "mesh", "irregular", "cycling"])
    )
    if kind == "cycling":
        topology, estimates = cycling_ring()
        nodes = st.integers(0, topology.num_nodes - 1)
        others = st.lists(st.tuples(nodes, nodes, st.floats(0.02, 0.4)), max_size=5)
        pairs = draw(st.permutations([(1, 4, 0.2), *draw(others)]))
        solver_args = {"m": 3, "max_rounds": draw(st.sampled_from([None, 2, 4]))}
        return topology, estimates, pairs, solver_args, rng
    if kind == "regular":
        degree = draw(st.sampled_from([3, 4]))
        base = random_regular(2 * draw(st.integers(3, 7)), degree, rng)
    elif kind == "blocks":  # 2 or 3 blocks per sweep
        degree = draw(st.sampled_from([3, 4]))
        base = random_regular(2 * draw(st.integers(16, 24)), degree, rng)
    elif kind == "ring":
        base = ring(draw(st.integers(3, 12)), rng)
    elif kind == "irregular":
        base = erdos_renyi(draw(st.integers(4, 12)), 0.4, rng)
    else:
        base = full_mesh(draw(st.integers(2, 7)), rng)
    graph = networkx_graph(base)
    delays = {edge: base.delay(*edge) for edge in base.edges()}
    nodes = st.integers(0, base.num_nodes - 1)
    leaf_subscriber = draw(st.none() | nodes)
    if leaf_subscriber is not None:
        graph.add_edge(leaf_subscriber, base.num_nodes)
        delays[canonical_edge(leaf_subscriber, base.num_nodes)] = 0.02
    topology = Topology(graph, delays)

    edges = sorted(topology.edges())
    if draw(st.booleans()):  # uniform links: every ratio comparison can tie
        gamma = draw(st.sampled_from([0.5, 0.9, 1.0]))
        estimates = {edge: LinkEstimate(alpha=0.02, gamma=gamma) for edge in edges}
    else:
        estimates = {
            edge: LinkEstimate(alpha=delays[edge], gamma=float(rng.uniform(0.3, 1.0)))
            for edge in edges
        }
    for edge in draw(st.sets(st.sampled_from(edges), max_size=3)):
        estimates[edge] = draw(
            st.sampled_from(
                [LinkEstimate(estimates[edge].alpha, 0.0), LinkEstimate(math.inf, 0.7)]
            )
        )
    cut_off = draw(st.none() | nodes)
    if cut_off is not None:
        for neighbor in topology.neighbors(cut_off):
            estimates[canonical_edge(cut_off, neighbor)] = LinkEstimate(math.inf, 0.0)

    deadlines = st.floats(0.02, 0.4)
    pairs = draw(st.lists(st.tuples(nodes, nodes, deadlines), min_size=1, max_size=8))
    if leaf_subscriber is not None:
        pairs.append((draw(nodes), leaf_subscriber, draw(deadlines)))
    if cut_off is not None:
        pairs.append((draw(nodes), cut_off, draw(deadlines)))
    if draw(st.booleans()):  # shorter than any link
        pairs.append((draw(nodes), draw(nodes), 1e-6))
    solver_args = {
        "m": draw(st.sampled_from([1, 2, 3])),
        "max_rounds": draw(st.sampled_from([None, 1, 2, 3, 6])),
    }
    return topology, estimates, pairs, solver_args, rng


def batch_of_200():
    """A 20-node world and 200 of its pairs, at 2.5 times the shortest delay."""
    topology, monitor = build_world(5, "sampled", num_nodes=20)
    pairs = [
        (publisher, subscriber, 2.5 * topology.shortest_delay(publisher, subscriber))
        for publisher in topology.nodes
        for subscriber in topology.nodes
        if publisher != subscriber
    ][:200]
    return topology, monitor.estimates(), pairs


class TestKernelEqualsReference:
    """The batched kernel against the scalar loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(solver_cases())
    def test_kernel_equals_reference(self, case):
        topology, estimates, pairs, solver_args, rng = case
        solver, tables = assert_kernel_equals_reference(
            topology, estimates, pairs, **solver_args
        )
        if tables is None:
            return
        # Batch independence: alone, or anywhere in a permuted batch, a
        # pair solves to the same table.
        assert [solver.solve([pair])[0] for pair in pairs] == tables
        order = rng.permutation(len(pairs)).tolist()
        permuted = solver.solve([pairs[index] for index in order])
        assert permuted == [tables[index] for index in order]

    @pytest.mark.parametrize(
        "pair",
        [(2, 99, 1.0), (99, 2, 1.0), (-1, 2, 1.0), (2, -1, 1.0)],
        ids=["subscriber", "publisher", "negative-publisher", "negative-subscriber"],
    )
    def test_unknown_brokers_are_rejected_at_either_end(self, pair):
        """Both ends of a pair are validated before anything is solved; an
        unknown publisher used to escape as ``networkx.NodeNotFound`` from
        the budget Dijkstra."""
        topology, monitor = build_world(5, "analytic", num_nodes=20)
        solver = ControlPlaneSolver(topology, monitor.estimates())
        (unknown,) = [node for node in pair[:2] if node not in topology.nodes]
        with pytest.raises(ConfigurationError, match=f"no broker {unknown}$"):
            solver.solve([(0, 1, 1.0), pair])

    @pytest.mark.parametrize(
        "arguments",
        [{"tol": -1e-9}, {"tol": math.inf}, {"tol": math.nan}, {"max_rounds": 0}],
    )
    def test_arguments_the_kernel_relies_on_are_validated(self, arguments):
        """A negative ``tol`` would move the nodes round 1 only counts, and
        an infinite one would need the gate's inf/finite clause."""
        topology, monitor = build_world(5, "analytic", num_nodes=20)
        with pytest.raises(ConfigurationError):
            ControlPlaneSolver(topology, monitor.estimates(), **arguments)

    def test_solved_states_read_like_the_dict_they_replace(self):
        topology, monitor = build_world(0, "analytic")
        solver = ControlPlaneSolver(topology, monitor.estimates())
        assert solver.solve([]) == []
        (table,) = solver.solve(make_pairs(topology)[:1])
        states = table.states
        assert len(states) == topology.num_nodes
        assert list(states) == list(topology.nodes)
        assert states[0] == states[0]  # derived afresh on every access
        assert topology.num_nodes not in states
        with pytest.raises(KeyError):
            states[-1]
        assert repr(states) == repr(dict(states))

    def test_batch_of_200_matches_solving_alone(self):
        topology, estimates, pairs = batch_of_200()
        solver, tables = assert_kernel_equals_reference(topology, estimates, pairs)
        for index in range(0, 200, 23):
            assert solver.solve([pairs[index]]) == [tables[index]]

    def test_leaf_of_the_subscriber_stops_in_the_round_it_updates(self):
        """Nothing but the subscriber neighbours the updated node, so the
        dirty set empties in sweep 1: one sweep, not one more to notice."""
        topology = make_topology([(0, 1, 0.010)])
        estimates = {(0, 1): LinkEstimate(alpha=0.010, gamma=0.9)}
        _, (table,) = assert_kernel_equals_reference(topology, estimates, [(0, 1, 1.0)])
        assert table.rounds == 1

    def test_exhausting_max_rounds_raises(self):
        """A table still dirty after ``max_rounds`` sweeps is an error that
        names it: the first such table of the batch, as the loop names it."""
        topology, monitor = build_world(1, "analytic")
        pairs = make_pairs(topology)
        solver, tables = assert_kernel_equals_reference(
            topology, monitor.estimates(), pairs, max_rounds=3
        )
        assert tables is None
        with pytest.raises(
            RoutingError,
            match=r"^the <d, r> table of publisher 0 -> subscriber 3 "
            r"\(deadline .*\) did not converge in 3 sweeps$",
        ):
            solver.solve(pairs)

    def test_limit_cycle_table_is_pinned(self):
        """One real table that fell into a period-2 limit cycle under
        lock-step rounds (``refresh_controlplane``'s world, publisher 36 ->
        subscriber 75), as the strategy ships it: converged in 10 sweeps
        and equal to the loop's, in a setup solve whose 201 tables all
        converge, with 26 exit-rule bans."""
        config = ExperimentConfig(
            topology_kind="regular", degree=6, num_nodes=80, num_topics=6,
            monitor_mode="sampled", monitor_period=10.0,
            failure_probability=0.06, duration=20.0,
        )
        world = RandomStreams(1)
        topology = build_topology(config, world)
        workload = generate_workload(
            topology,
            world.get("workload"),
            num_topics=config.num_topics,
            publish_interval=config.publish_interval,
            ps_range=config.ps_range,
            deadline_factor=config.deadline_factor,
            deadline_factor_choices=config.deadline_factor_choices,
        )
        env = build_environment(config, "DCRD", 1, topology=topology, workload=workload)
        spec = workload.topics[0]
        assert spec.publisher == 36
        shipped = env.strategy.table(spec.topic, 75)
        assert shipped.rounds == 10
        assert env.strategy.perf.get("control_plane.tables_solved_cold") == 201
        assert env.strategy.perf.get("control_plane.candidates_banned") == 26

        estimates = env.ctx.monitor.snapshot()
        pair = (36, 75, shipped.deadline)
        assert shipped == reference_solve(topology, estimates, *pair)

    @pytest.mark.parametrize(
        "make, rounds",
        [(lambda rng: ring(8, rng), 45), (lambda rng: full_mesh(5, rng), 537)],
        ids=["ring-8", "mesh-5"],
    )
    def test_weak_links_converge_slowly(self, make, rounds):
        """Weak links (gamma 0.3) under a loose deadline: every neighbour
        stays eligible, so the exit rule never acts, and ``d`` creeps
        towards its fixed point for dozens (ring) to hundreds (mesh) of
        sweeps, inside the default ``max_rounds`` and equal to the loop; a
        tighter bound raises."""
        topology = make(np.random.default_rng(3))
        estimates = {
            edge: LinkEstimate(alpha=topology.delay(*edge), gamma=0.3)
            for edge in topology.edges()
        }
        pair = (0, topology.num_nodes - 1, 5.0)
        solver, (table,) = assert_kernel_equals_reference(topology, estimates, [pair])
        assert table.rounds == rounds
        with pytest.raises(
            RoutingError, match=f"did not converge in {rounds - 1} sweeps$"
        ):
            ControlPlaneSolver(topology, estimates, max_rounds=rounds - 1).solve([pair])
        assert solver.perf.get("control_plane.candidates_banned") == 0


def solve_in_chunks(topology, estimates, pairs, per_chunk, **solver_args):
    """Solve *pairs* with ``_CHUNK_CELLS`` set to hold *per_chunk* tables.

    Returns the tables, or the :class:`RoutingError` text if the solve
    raised, and the work counters; asserts the batch ran in as many chunks
    as *per_chunk* makes.
    """
    width = max(topology.degree(node) for node in topology.nodes)
    perf = PerfStats()
    solver = ControlPlaneSolver(topology, estimates, perf=perf, **solver_args)
    chunks = []
    solve_chunk = ControlPlaneSolver._solve_chunk

    def counted(self, chunk):
        chunks.append(len(chunk))
        return solve_chunk(self, chunk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            computation, "_CHUNK_CELLS", per_chunk * topology.num_nodes * width
        )
        patch.setattr(ControlPlaneSolver, "_solve_chunk", counted)
        try:
            result = solver.solve(pairs)
        except RoutingError as error:
            result = str(error)
    if not isinstance(result, str):
        assert len(chunks) == -(-len(pairs) // per_chunk)
    assert max(chunks) <= per_chunk
    return result, [perf.get(counter) for counter in WORK_COUNTERS]


def assert_chunking_invisible(topology, estimates, pairs, **solver_args):
    """One batch, two chunks and many chunks solve *pairs* identically."""
    whole, work = solve_in_chunks(topology, estimates, pairs, len(pairs), **solver_args)
    for per_chunk in sorted({-(-len(pairs) // 2), 3, 1}, reverse=True):
        tables, chunked_work = solve_in_chunks(
            topology, estimates, pairs, per_chunk, **solver_args
        )
        assert chunked_work == work, per_chunk
        assert tables == whole
        if isinstance(whole, str):
            continue
        for table, expected in zip(tables, whole):
            assert table.rounds == expected.rounds
            for node in topology.nodes:
                assert table.sending_list(node) == expected.sending_list(node)
    return whole


class TestChunkedBatches:
    """``solve`` runs its pairs in chunks of at most ``_CHUNK_CELLS`` cells;
    where the batch is cut changes no table, counter or error."""

    def test_batch_of_200_in_chunks(self):
        assert_chunking_invisible(*batch_of_200())

    @settings(max_examples=100, deadline=None)
    @given(solver_cases())
    def test_solver_cases_in_chunks(self, case):
        topology, estimates, pairs, solver_args, _ = case
        assert_chunking_invisible(topology, estimates, pairs, **solver_args)

    def test_unconverged_table_in_a_later_chunk_raises_as_one_batch(self):
        """Converging tables first, then one that exhausts ``max_rounds``:
        cut after each table, the error names the same table in the same
        words, and no work counter moves."""
        topology, monitor = build_world(1, "analytic")
        estimates = monitor.estimates()
        solver = ControlPlaneSolver(topology, estimates, max_rounds=13)
        converging, failing = [], []
        for pair in make_pairs(topology, per_publisher=4):
            try:
                solver.solve([pair])
                converging.append(pair)
            except RoutingError:
                failing.append(pair)
        assert len(converging) >= 2 and len(failing) >= 2
        pairs = converging + failing
        error = assert_chunking_invisible(topology, estimates, pairs, max_rounds=13)
        assert f"subscriber {failing[0][1]} " in error
        _, work = solve_in_chunks(topology, estimates, pairs, 1, max_rounds=13)
        assert work == [0.0] * len(WORK_COUNTERS)


class TestCompactTables:
    """A solved table keeps its ``<d, r>`` rows, sending-list lengths and
    column orders; states, budgets and sending lists are derived from
    them on access (``docs/PERFORMANCE.md``, "Memory per solved table")."""

    def test_a_solved_table_retains_at_most_64_bytes_per_node(self, monkeypatch):
        topology, monitor = build_world(1, "sampled", num_nodes=80, degree=6)
        solver = ControlPlaneSolver(topology, monitor.estimates())
        pairs = [
            (source, sink, 2.5 * topology.shortest_delay(source, sink))
            for source in range(6)
            for sink in range(6, 40)
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tables = solver.solve(pairs)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = len(tables) * topology.num_nodes
        assert retained / cells <= 64, f"{retained / cells:.1f} B per (table, node)"

        # The data plane's read builds no NodeState.
        table = tables[0]
        node = table.publisher
        expected = table.state(node).neighbor_order
        assert expected

        def no_state(*args, **kwargs):
            raise AssertionError("sending_list built a NodeState")

        monkeypatch.setattr(computation, "NodeState", no_state)
        assert table.sending_list(node) == expected

    def test_the_dense_setup_solve_peaks_at_one_sweep_block(self, cycling_worlds):
        """The kernel's buffers hold one block of every table, not the whole
        batch: the final sending-list pass runs block by block, like the
        sweeps. ``dense_dataplane``'s 280 x 160 setup solve peaked at 20.0
        MiB with batch-wide buffers and at 7.0 MiB with block-wide ones
        (tracemalloc, Python 3.11); the bound sits between the two."""
        topology, estimates, pairs = cycling_worlds["dense"]
        solver = ControlPlaneSolver(topology, estimates)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tables = solver.solve(pairs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(tables) == 280
        assert peak < 10 * 2**20, f"{peak / 2**20:.1f} MiB peak"

    def test_reading_every_state_retains_nothing(self):
        """A sanitizer pass reads every state of every table it checks;
        the table must not keep them."""
        topology, estimates, pairs = batch_of_200()
        tables = ControlPlaneSolver(topology, estimates).solve(pairs)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            read = sum(
                len(state.sending_list)
                for table in tables
                for _, state in table.states.items()
            )
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert read > len(tables)
        # What stays is the interpreter's float free list, not per state.
        assert retained < 16 * 1024, f"{retained} B retained after reading every state"


#: The two benchmark worlds whose setup solves held tables in a limit cycle
#: under lock-step Jacobi rounds (``refresh_controlplane``: 9 of 201 tables;
#: ``dense_dataplane``: 24 of 280).
CYCLING_WORLDS = {
    "refresh": ExperimentConfig(
        topology_kind="regular", degree=6, num_nodes=80, num_topics=6,
        monitor_mode="sampled", monitor_period=10.0,
        failure_probability=0.06, duration=20.0,
    ),
    "dense": ExperimentConfig(
        topology_kind="regular", degree=8, num_nodes=160, num_topics=4,
        publish_interval=0.2, failure_probability=0.06, duration=60.0,
    ),
}

#: One table per cycle period (2, 4, 6, 8 and 12 rounds) the two worlds
#: showed under Jacobi rounds (seed 1).
CYCLING_TABLES = [
    ("refresh", 36, 75),
    ("dense", 75, 5),
    ("dense", 102, 45),
    ("dense", 53, 141),
    ("refresh", 54, 17),
]


@pytest.fixture(scope="module")
def cycling_worlds():
    """``{name: (topology, estimates, pairs)}`` of the worlds at seed 1."""
    worlds = {}
    for name, config in CYCLING_WORLDS.items():
        env = build_environment(config, "DCRD", 1)
        pairs = [
            (spec.publisher, sub.node, sub.deadline)
            for spec in env.ctx.workload.topics
            for sub in spec.subscriptions
            if sub.node != spec.publisher
        ]
        worlds[name] = env.ctx.topology, env.ctx.monitor.snapshot(), pairs
    return worlds


class TestEveryTableConverges:
    """Gauss-Seidel sweeps with the exit rule reach a fixed point on every
    table, the former limit cycles of lock-step Jacobi rounds included."""

    @pytest.mark.parametrize("world, publisher, subscriber", CYCLING_TABLES)
    def test_a_former_limit_cycle_converges(
        self, cycling_worlds, world, publisher, subscriber
    ):
        """Alone it equals the loop, well inside ``max_rounds``, and it is
        the same table inside its world's whole batch."""
        topology, estimates, pairs = cycling_worlds[world]
        (pair,) = [p for p in pairs if p[:2] == (publisher, subscriber)]
        _, (table,) = assert_kernel_equals_reference(topology, estimates, [pair])
        assert table.rounds < 32
        batch = ControlPlaneSolver(topology, estimates).solve(pairs)
        assert batch[pairs.index(pair)] == table

    @pytest.mark.parametrize(
        "world, sweeps, recomputes, banned",
        [("refresh", 2_267, 154_010, 26), ("dense", 3_378, 473_431, 74)],
        ids=["refresh", "dense"],
    )
    def test_every_table_of_the_cycling_worlds_converges(
        self, cycling_worlds, world, sweeps, recomputes, banned
    ):
        """The whole setup solve of each world converges (nothing raises);
        its work is pinned."""
        topology, estimates, pairs = cycling_worlds[world]
        perf = PerfStats()
        ControlPlaneSolver(topology, estimates, perf=perf).solve(pairs)
        assert perf.get("control_plane.jacobi_rounds") == sweeps
        assert perf.get("control_plane.node_recomputes") == recomputes
        assert perf.get("control_plane.candidates_banned") == banned

    def test_former_limit_cycles_leave_their_batch_mates_alone(self, cycling_worlds):
        """Former limit cycles and other tables mixed: alone == batch ==
        permuted batch, and the batch counts what its tables count alone."""
        topology, estimates, pairs = cycling_worlds["refresh"]
        tables = ControlPlaneSolver(topology, estimates).solve(pairs)
        cycling = [
            index for index, pair in enumerate(pairs)
            if ("refresh", *pair[:2]) in CYCLING_TABLES
        ]
        mixed = sorted({*cycling, *range(0, len(pairs), 8)})

        batch_perf, alone_perf = PerfStats(), PerfStats()
        batch = ControlPlaneSolver(topology, estimates, perf=batch_perf)
        alone = ControlPlaneSolver(topology, estimates, perf=alone_perf)
        assert batch.solve([pairs[i] for i in mixed]) == [tables[i] for i in mixed]
        for i in mixed:
            assert alone.solve([pairs[i]]) == [tables[i]]
        for counter in WORK_COUNTERS:
            assert batch_perf.get(counter) == alone_perf.get(counter), counter
        order = np.random.default_rng(0).permutation(mixed).tolist()
        assert batch.solve([pairs[i] for i in order]) == [tables[i] for i in order]

    def test_a_table_with_two_fixed_points_is_solved_deterministically(
        self, cycling_worlds
    ):
        """``dense_dataplane``'s table 53 -> 72, where brokers 123 and 140
        are each other's candidate and either one can hold the other:
        listing the other as a backup pushes a broker's own ``d`` past the
        other's budget, so it drops out of the other's list. Lock-step
        rounds shipped 123 holding 140; the sweeps settle on 140 holding
        123. The mirror image is consistent too (checked below from the
        table's own values), so both are fixed points of Algorithm 1; the
        sweep order picks one, the same alone, in the batch, in any order
        and in the loop."""
        topology, estimates, pairs = cycling_worlds["dense"]
        (pair,) = [p for p in pairs if p[:2] == (53, 72)]
        _, (table,) = assert_kernel_equals_reference(topology, estimates, [pair])
        tables = ControlPlaneSolver(topology, estimates).solve(pairs)
        assert tables[pairs.index(pair)] == table
        order = np.random.default_rng(1).permutation(len(pairs)).tolist()
        permuted = ControlPlaneSolver(topology, estimates).solve(
            [pairs[i] for i in order]
        )
        assert permuted[order.index(pairs.index(pair))] == table

        # This fixed point: 140 holds 123, whose d is inside 140's budget,
        # and 140's d is past 123's budget.
        assert table.sending_list(140) == (85, 123)
        assert table.sending_list(123) == (85,)
        assert table.state(123).d < table.budget(140)
        assert table.state(140).d >= table.budget(123)
        # The mirror image: with 85 alone, 140's d is inside 123's budget,
        # and 123 holding 140 behind 85 has its d past 140's budget.
        (via_85,) = table.state(123).sending_list
        d_140, r_140 = aggregate_dr(table.state(140).sending_list[:1])
        assert d_140 < table.budget(123)
        alpha, gamma = link_params_m(
            estimates[canonical_edge(123, 140)].alpha,
            estimates[canonical_edge(123, 140)].gamma,
            1,
        )
        via_140 = ViaNeighbor(140, alpha + d_140, gamma * r_140)
        assert via_85.d_via / via_85.r_via < via_140.d_via / via_140.r_via
        d_123, _ = aggregate_dr([via_85, via_140])
        assert d_123 >= table.budget(140)


def run_dcrd(config, seed, incremental, churn_rate=None):
    """One DCRD run with the incremental control plane toggled."""
    env = build_environment(config, "DCRD", seed)
    env.strategy.incremental = incremental
    churn = None
    if churn_rate is not None:
        churn = ChurnProcess(
            env.ctx,
            env.strategy,
            rate=churn_rate,
            deadline_factor=config.deadline_factor,
            stop_time=config.duration,
        )
        churn.start()
    return env.execute()


class TestStrategyDeterminism:
    """run_single results are invariant to the incremental machinery.

    ``MetricsSummary`` equality covers every reported metric (the ``perf``
    diagnostics field is excluded by design — wall-clock times differ).
    """

    CONFIG = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        failure_probability=0.06,
        duration=20.0,
        monitor_period=5.0,  # several refreshes, so table reuse engages
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_summaries(self, seed):
        reference = run_dcrd(self.CONFIG, seed, incremental=False)
        incremental = run_dcrd(self.CONFIG, seed, incremental=True)
        assert incremental == reference
        assert incremental.as_dict() == reference.as_dict()

    def test_identical_summaries_sampled_monitor(self):
        config = self.CONFIG.with_updates(monitor_mode="sampled", loss_rate=0.01)
        reference = run_dcrd(config, 0, incremental=False)
        incremental = run_dcrd(config, 0, incremental=True)
        assert incremental == reference

    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_summaries_under_churn(self, seed):
        config = self.CONFIG.with_updates(monitor_mode="sampled", loss_rate=0.01)
        reference = run_dcrd(config, seed, incremental=False, churn_rate=2.0)
        incremental = run_dcrd(config, seed, incremental=True, churn_rate=2.0)
        assert incremental == reference

    def test_perf_counters_exposed(self):
        summary = run_dcrd(
            self.CONFIG.with_updates(monitor_mode="sampled"), 0, incremental=True
        )
        perf = summary.perf
        assert perf.get("control_plane.table_rebuilds", 0) >= 1
        assert perf.get("control_plane.dijkstra_calls", 0) >= 1
        assert perf.get("control_plane.solve_time_s", 0) > 0
        assert perf.get("sim.events_processed", 0) > 0
        assert perf.get("monitor.refreshes", 0) >= 1
        assert perf.get("control_plane.refreshes", 0) >= 2
        assert perf.get("control_plane.tables_solved_cold", 0) >= 1
        assert "control_plane.candidates_banned" in perf
        # The diagnostics stay out of the deterministic report dict.
        assert "perf" not in summary.as_dict()
