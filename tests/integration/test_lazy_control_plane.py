"""Solving the ``<d, r>`` tables at first read changes no run.

DCRD's control plane runs on demand: a monitoring refresh that moved the
estimates only marks the tables stale, and the first read solves them.
The oracle is the eager strategy it replaced, kept here as a test-only
subclass whose refresh solves at once. On sampled-monitor worlds with
in-run refreshes — refreshes the traffic reads, refreshes in the drain
nobody reads, refreshes that collapse before a read, churn landing
between a refresh and the first read, and a sanitized run — both must
produce the same summary, event count, per-pair outcomes and final
tables, while the lazy one solves no more tables than the eager one.
"""

import pytest

from repro.core.forwarding import DcrdStrategy
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.extensions.churn import ChurnProcess
from tests.conftest import outcome_digest


class EagerDcrdStrategy(DcrdStrategy):
    """DCRD that re-runs Algorithm 1 inside every refresh (the oracle)."""

    def on_monitor_refresh(self) -> None:
        self._rebuild_tables()


#: A refresh_controlplane-shaped world, shrunk: sampled estimates move at
#: every refresh, refreshes at 5, 10 and 15 s are read by the traffic,
#: the one at 20 s lands in the drain.
REFRESH = ExperimentConfig(
    topology_kind="regular", degree=5, num_nodes=30, num_topics=4,
    monitor_mode="sampled", monitor_period=5.0, failure_probability=0.06,
    duration=15.0, drain=5.0,
)

CELLS = {
    "refresh": (REFRESH, None),
    # Eight refreshes per publish interval: most collapse into one read.
    "collapsed": (
        REFRESH.with_updates(
            num_topics=2, monitor_period=0.25, publish_interval=2.0,
            loss_rate=0.02, duration=6.0,
        ),
        None,
    ),
    # Joins and leaves land between a refresh and the first read.
    "churn": (
        REFRESH.with_updates(
            num_topics=2, monitor_period=0.5, publish_interval=2.0, duration=10.0
        ),
        8.0,
    ),
    "sanitized": (REFRESH.with_updates(sanitize=True), None),
}


def run(config, strategy, churn_rate):
    env = build_environment(config, strategy, seed=3)
    if churn_rate is not None:
        ChurnProcess(
            env.ctx,
            env.strategy,
            rate=churn_rate,
            deadline_factor=config.deadline_factor,
            stop_time=config.duration,
        ).start()
    summary = env.execute()
    return env, summary


def final_tables(env):
    """Every table the strategy holds once read: each node's ``d`` and
    ``r`` and its sending list, per (topic, subscriber)."""
    strategy = env.strategy
    rows = {}
    for spec in env.ctx.workload.topics:
        for sub in spec.subscriptions:
            table = strategy.table(spec.topic, sub.node)
            rows[spec.topic, sub.node] = [
                (state.d, state.r, table.sending_list(node))
                for node, state in table.states.items()
            ]
    assert len(rows) == len(strategy._tables)
    return rows


@pytest.fixture
def eager(monkeypatch):
    monkeypatch.setitem(runner.STRATEGIES, "DCRD-eager", EagerDcrdStrategy)
    return "DCRD-eager"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_lazy_refresh_equals_eager(cell, eager):
    config, churn_rate = CELLS[cell]
    eager_env, eager_summary = run(config, eager, churn_rate)
    lazy_env, lazy_summary = run(config, "DCRD", churn_rate)
    assert type(lazy_env.strategy) is DcrdStrategy

    assert lazy_summary == eager_summary
    assert lazy_summary.as_dict() == eager_summary.as_dict()
    assert lazy_env.ctx.sim.processed_events == eager_env.ctx.sim.processed_events
    assert outcome_digest(lazy_env) == outcome_digest(eager_env)
    if config.sanitize:
        assert lazy_summary.perf["sanity.violations"] == 0
        assert eager_summary.perf["sanity.violations"] == 0

    # Same refreshes, no more solving; the world has in-run refreshes
    # that move the estimates, so the eager side re-solved during the run.
    def work(summary, name):
        return summary.perf.get(f"control_plane.{name}", 0.0)

    assert lazy_summary.perf["monitor.refreshes"] == eager_summary.perf["monitor.refreshes"]
    assert work(eager_summary, "refreshes") > 1
    for name in ("refreshes", "tables_solved_cold", "jacobi_rounds"):
        assert work(lazy_summary, name) <= work(eager_summary, name), name
    if cell in ("refresh", "collapsed"):
        # The drain's refresh (and, collapsed, most refreshes) go unread.
        assert work(lazy_summary, "tables_solved_cold") < work(
            eager_summary, "tables_solved_cold"
        )
    assert work(lazy_summary, "refreshes_noop") == work(eager_summary, "refreshes_noop")

    # Reading the lazy tables solves the last refresh's estimates, which
    # the eager side solved at the refresh.
    assert final_tables(lazy_env) == final_tables(eager_env)
