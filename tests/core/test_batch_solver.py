"""Equivalence of the batched control-plane solver.

The control plane has two acceleration layers — one batched NumPy kernel
that solves every table of a refresh in lock-step
(:class:`ControlPlaneSolver`), and dirty-edge table reuse — and both must
be behaviourally invisible: the kernel's tables are bit-identical to the
scalar loop it replaced (``tests/core/reference_solver.py``), down to
``rounds``, ``converged`` and the work counters; a table does not depend on
what else was in its batch; and reused tables are exactly what a
from-scratch solve would produce.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.computation import (
    ControlPlaneSolver,
    compute_dr_table,
    compute_dr_tables,
)
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
from repro.util.errors import ConfigurationError
from tests.conftest import make_topology
from tests.core.reference_solver import reference_solve

WORK_COUNTERS = (
    "control_plane.tables_solved_cold",
    "control_plane.jacobi_rounds",
    "control_plane.node_recomputes",
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
    """Solve *pairs* as one batch and against the loop; everything must match."""
    kernel_perf, loop_perf = PerfStats(), PerfStats()
    solver = ControlPlaneSolver(topology, estimates, perf=kernel_perf, **solver_args)
    tables = solver.solve(pairs)
    assert len(tables) == len(pairs)
    unconverged = 0
    for table, (publisher, subscriber, deadline) in zip(tables, pairs):
        reference = reference_solve(
            topology, estimates, publisher, subscriber, deadline,
            perf=loop_perf, **solver_args,
        )
        assert table.rounds == reference.rounds
        assert table.converged == reference.converged
        assert table == reference
        for node in topology.nodes:  # what the data plane reads
            assert table.sending_list(node) == reference.sending_list(node)
        unconverged += not reference.converged
    for counter in WORK_COUNTERS:
        assert kernel_perf.get(counter) == loop_perf.get(counter), counter
    assert kernel_perf.get("control_plane.tables_unconverged") == unconverged
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
            batched = compute_dr_tables(topology, estimates, publisher, pub_pairs)
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
                if solver.table_affected(pair[0], pair[2], changed)
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
        assert not solver0.table_affected(publisher, deadline, far_edges)
        # And indeed re-solving from scratch reproduces the table exactly.
        assert solver0.solve([(publisher, subscriber, deadline)]) == [table]


def cycling_ring():
    """A 7-ring on which the pair ``(1, 4, 0.2)`` at ``m = 3`` falls into a
    limit cycle whose ``<d, r>`` values repeat one period before its dirty
    mask does."""
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

    Covers what the kernel's masking, tie-breaking, round-1 wavefront and
    per-table bookkeeping have to get right: dead links (``gamma`` 0 or
    ``alpha`` inf); a broker cut off entirely, also as a subscriber, whose
    round-1 wavefront is then empty; a leaf hanging off a subscriber;
    irregular degrees, so rows carry padding columns; uniform links whose
    ``d/r`` ratios tie exactly; a deadline so short that no broker but the
    publisher (whose budget is the whole deadline) has a positive budget;
    ``m`` > 1; a ``max_rounds`` that cuts some tables off mid-iteration;
    and a table in a limit cycle batched with converging ones, cut at
    every phase of its cycle.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["regular", "ring", "mesh", "irregular", "cycling"]))
    if kind == "cycling":
        topology, estimates = cycling_ring()
        nodes = st.integers(0, topology.num_nodes - 1)
        others = st.lists(st.tuples(nodes, nodes, st.floats(0.02, 0.4)), max_size=5)
        pairs = draw(st.permutations([(1, 4, 0.2), *draw(others)]))
        solver_args = {
            "m": 3,
            "max_rounds": draw(st.sampled_from([None, *range(60, 73)])),
        }
        return topology, estimates, pairs, solver_args, rng
    if kind == "regular":
        degree = draw(st.sampled_from([3, 4]))
        base = random_regular(2 * draw(st.integers(3, 7)), degree, rng)
    elif kind == "ring":
        base = ring(draw(st.integers(3, 12)), rng)
    elif kind == "irregular":
        base = erdos_renyi(draw(st.integers(4, 12)), 0.4, rng)
    else:
        base = full_mesh(draw(st.integers(2, 7)), rng)
    graph = base.graph.copy()
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


class TestKernelEqualsReference:
    """The batched kernel against the scalar loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(solver_cases())
    def test_kernel_equals_reference(self, case):
        topology, estimates, pairs, solver_args, rng = case
        solver, tables = assert_kernel_equals_reference(
            topology, estimates, pairs, **solver_args
        )
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
        assert states[0] is states[0]  # built once, then kept
        assert topology.num_nodes not in states
        with pytest.raises(KeyError):
            states[-1]
        assert repr(states) == repr(dict(states))

    def test_batch_of_200_matches_solving_alone(self):
        topology, monitor = build_world(5, "sampled", num_nodes=20)
        pairs = [
            (publisher, subscriber, 2.5 * topology.shortest_delay(publisher, subscriber))
            for publisher in topology.nodes
            for subscriber in topology.nodes
            if publisher != subscriber
        ][:200]
        solver, tables = assert_kernel_equals_reference(
            topology, monitor.estimates(), pairs
        )
        for index in range(0, 200, 23):
            assert solver.solve([pairs[index]]) == [tables[index]]

    def test_leaf_of_the_subscriber_stops_in_the_round_it_updates(self):
        """Nothing but the subscriber neighbours the updated node, so the
        dirty set empties in round 1: one round, not one more to notice."""
        topology = make_topology([(0, 1, 0.010)])
        estimates = {(0, 1): LinkEstimate(alpha=0.010, gamma=0.9)}
        _, (table,) = assert_kernel_equals_reference(topology, estimates, [(0, 1, 1.0)])
        assert (table.rounds, table.converged) == (1, True)

    def test_cut_off_tables_stop_together_unconverged(self):
        topology, monitor = build_world(1, "analytic")
        pairs = make_pairs(topology)
        _, tables = assert_kernel_equals_reference(
            topology, monitor.estimates(), pairs, max_rounds=3
        )
        cut_off = [table for table in tables if not table.converged]
        assert len(cut_off) >= 2
        assert {table.rounds for table in cut_off} == {3}

    def test_limit_cycle_table_is_pinned(self):
        """One real table that never converges (``refresh_controlplane``'s
        world, publisher 36 -> subscriber 75): budget eligibility flips on
        a cyclic sending list, period 2, until ``max_rounds`` cuts it off."""
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
        assert (shipped.rounds, shipped.converged) == (160, False)
        assert env.strategy.perf.get("control_plane.tables_unconverged") == 9

        estimates = env.ctx.monitor.snapshot()
        pair = (36, 75, shipped.deadline)
        assert shipped == reference_solve(topology, estimates, *pair)
        earlier = {
            cut: ControlPlaneSolver(topology, estimates, max_rounds=cut).solve([pair])[0]
            for cut in (157, 158, 159)
        }
        assert earlier[158].states == shipped.states
        assert earlier[157].states == earlier[159].states != shipped.states


#: The two benchmark worlds whose setup solves contain limit cycles
#: (``refresh_controlplane``: 9 of 201 tables; ``dense_dataplane``: 24 of 280).
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

#: One table per cycle period the two worlds exhibit (seed 1).
CYCLING_TABLES = [
    ("refresh", 36, 75, 2),
    ("dense", 75, 5, 4),
    ("dense", 102, 45, 6),
    ("dense", 53, 141, 8),
    ("refresh", 54, 17, 12),
]

SKIP_COUNTERS = ("control_plane.cycles_detected", "control_plane.rounds_skipped")


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


class TestLimitCycleFastForward:
    """A table in a bit-exact limit cycle is carried to ``max_rounds``
    arithmetically; nothing the scalar loop would have produced moves."""

    @pytest.mark.parametrize("world, publisher, subscriber, period", CYCLING_TABLES)
    def test_every_landing_phase_equals_the_reference(
        self, cycling_worlds, world, publisher, subscriber, period
    ):
        """``max_rounds`` swept over one full period past the detection
        round: the table, ``rounds``, ``converged`` and both work counters
        equal the loop's at every phase the jump can land on."""
        topology, estimates, pairs = cycling_worlds[world]
        (pair,) = [p for p in pairs if p[:2] == (publisher, subscriber)]
        phases = []
        for cut in range(100, 100 + period + 1):
            solver, (table,) = assert_kernel_equals_reference(
                topology, estimates, [pair], max_rounds=cut
            )
            assert (table.rounds, table.converged) == (cut, False)
            assert solver.perf.get("control_plane.cycles_detected") == 1
            skipped = solver.perf.get("control_plane.rounds_skipped")
            assert skipped > 0 and skipped % period == 0
            phases.append(table.states)
        assert phases[period] == phases[0]
        for phase, following in zip(phases, phases[1:]):
            assert phase != following  # so landing one round off cannot pass

    @pytest.mark.parametrize("world, publisher, subscriber, period", CYCLING_TABLES)
    def test_carried_two_periods_after_the_cycle_starts(
        self, cycling_worlds, world, publisher, subscriber, period
    ):
        """The digest sees the first repeat one period after the cycle
        starts, and the bitwise check one period later confirms it: the
        table is carried by round ``start + 2 * period`` wherever the cycle
        starts (rounds 32-39 here), not at the next power of two."""
        topology, estimates, pairs = cycling_worlds[world]
        (pair,) = [p for p in pairs if p[:2] == (publisher, subscriber)]
        solved = {}

        def solve(cut):
            if cut not in solved:
                perf = PerfStats()
                solver = ControlPlaneSolver(
                    topology, estimates, max_rounds=cut, perf=perf
                )
                (table,) = solver.solve([pair])
                solved[cut] = table.states, perf.get("control_plane.rounds_skipped")
            return solved[cut]

        start = next(
            cut for cut in itertools.count(1) if solve(cut)[0] == solve(cut + period)[0]
        )
        # Carried at round k, a table skips rounds only once max_rounds
        # leaves a whole period past k.
        first_skip = next(cut for cut in itertools.count(start) if solve(cut)[1])
        carried_at = first_skip - period
        assert start + period <= carried_at <= start + 2 * period

    def test_a_repeated_digest_only_nominates(self, cycling_worlds):
        """With the digest weights zeroed, every running table's digest
        repeats every round and nominates it under a wrong period; the
        bitwise check alone decides what is carried, so what ships is still
        exactly the loop's."""
        topology, estimates, pairs = cycling_worlds["refresh"]
        batch = [pair for pair in pairs if pair[:2] in {(36, 75), (54, 17)}]
        batch += pairs[::25]
        kernel_perf, loop_perf = PerfStats(), PerfStats()
        solver = ControlPlaneSolver(topology, estimates, perf=kernel_perf)
        solver._digest_weights[:] = 0
        for table, pair in zip(solver.solve(batch), batch):
            reference = reference_solve(topology, estimates, *pair, perf=loop_perf)
            assert table.rounds == reference.rounds
            assert table.converged == reference.converged
            assert table == reference
        for counter in WORK_COUNTERS:
            assert kernel_perf.get(counter) == loop_perf.get(counter), counter

    def test_the_dirty_mask_is_part_of_the_state(self):
        """On this 7-ring the ``<d, r>`` values first repeat while the dirty
        mask still differs (a node that settled is evaluated one last
        time): a jump from the first value repeat would come a period early
        and count node recomputes the loop never makes. The digest and the
        bitwise check both cover the mask, and the carry lands exactly at
        every cut."""
        topology, estimates = cycling_ring()
        for cut in range(60, 72):
            solver, _ = assert_kernel_equals_reference(
                topology, estimates, [(1, 4, 0.2)], m=3, max_rounds=cut
            )
            assert solver.perf.get("control_plane.rounds_skipped") > 0

    def test_cycling_tables_leave_their_batch_mates_alone(self, cycling_worlds):
        """Cycling and converging tables mixed: alone == batch == permuted
        batch, and the batch counts what its tables count alone."""
        topology, estimates, pairs = cycling_worlds["refresh"]
        setup_perf = PerfStats()
        tables = ControlPlaneSolver(topology, estimates, perf=setup_perf).solve(pairs)
        cycling = [i for i, table in enumerate(tables) if not table.converged]
        assert len(cycling) == 9
        assert setup_perf.get("control_plane.cycles_detected") == 9
        mixed = sorted({*cycling, *range(0, len(pairs), 8)})

        batch_perf, alone_perf = PerfStats(), PerfStats()
        batch = ControlPlaneSolver(topology, estimates, perf=batch_perf)
        alone = ControlPlaneSolver(topology, estimates, perf=alone_perf)
        assert batch.solve([pairs[i] for i in mixed]) == [tables[i] for i in mixed]
        for i in mixed:
            assert alone.solve([pairs[i]]) == [tables[i]]
        for counter in WORK_COUNTERS + SKIP_COUNTERS:
            assert batch_perf.get(counter) == alone_perf.get(counter), counter
        order = np.random.default_rng(0).permutation(mixed).tolist()
        assert batch.solve([pairs[i] for i in order]) == [tables[i] for i in order]

    @pytest.mark.parametrize(
        "make, max_rounds, rounds, converged",
        [(lambda rng: ring(8, rng), None, 45, True),
         (lambda rng: full_mesh(5, rng), 200, 200, False)],
        ids=["converges-after-the-snapshots", "drifts-to-the-backstop"],
    )
    def test_slow_convergence_is_not_a_cycle(self, make, max_rounds, rounds, converged):
        """Weak links (gamma 0.3): values creep for dozens of rounds, well
        past the first snapshots, without ever repeating — never jumped."""
        topology = make(np.random.default_rng(3))
        estimates = {
            edge: LinkEstimate(alpha=topology.delay(*edge), gamma=0.3)
            for edge in topology.edges()
        }
        pair = (0, topology.num_nodes - 1, 5.0)
        solver, (table,) = assert_kernel_equals_reference(
            topology, estimates, [pair], max_rounds=max_rounds
        )
        assert (table.rounds, table.converged) == (rounds, converged)
        for counter in SKIP_COUNTERS:
            assert solver.perf.get(counter) == 0


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
        assert "control_plane.tables_unconverged" in perf
        # The diagnostics stay out of the deterministic report dict.
        assert "perf" not in summary.as_dict()
