"""Tests for the control-plane convergence study."""

from repro.analysis.convergence import convergence_report
from repro.core.computation import sweep_blocks
from repro.overlay.topology import full_mesh, random_regular
from repro.pubsub.topics import generate_workload
from tests.conftest import build_ctx


def make_setup(topo, rng):
    workload = generate_workload(topo, rng, num_topics=4)
    ctx = build_ctx(topo, workload)
    return ctx, workload


def test_report_covers_all_pairs(rng):
    topo = full_mesh(10, rng)
    ctx, workload = make_setup(topo, rng)
    report = convergence_report(topo, ctx.monitor, workload)
    assert report.pairs == workload.total_subscriptions
    assert report.reachable_fraction == 1.0
    assert report.max_rounds >= 1


def test_sparse_graphs_take_more_rounds(rng):
    mesh = full_mesh(12, rng)
    sparse = random_regular(12, 3, rng)
    mesh_ctx, mesh_workload = make_setup(mesh, rng)
    sparse_ctx, sparse_workload = make_setup(sparse, rng)
    mesh_report = convergence_report(mesh, mesh_ctx.monitor, mesh_workload)
    sparse_report = convergence_report(sparse, sparse_ctx.monitor, sparse_workload)
    # One block each, so a round is a lock-step propagation round, and
    # longer diameters need more of them.
    assert len(sweep_blocks(mesh)) == len(sweep_blocks(sparse)) == 1
    assert sparse_report.mean_rounds >= mesh_report.mean_rounds


def test_empty_workload(rng):
    topo = full_mesh(4, rng)
    ctx = build_ctx(topo)
    report = convergence_report(topo, ctx.monitor, ctx.workload)
    assert report.pairs == 0


def test_as_dict(rng):
    topo = full_mesh(6, rng)
    ctx, workload = make_setup(topo, rng)
    report = convergence_report(topo, ctx.monitor, workload)
    data = report.as_dict()
    assert set(data) == {
        "pairs", "mean_rounds", "max_rounds", "reachable_fraction",
    }
