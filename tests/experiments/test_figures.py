"""Smoke tests of every figure driver at miniature scale.

Each driver must execute the exact code path of its paper figure — the
scale knobs (duration, seeds, strategies) are shrunk so the whole module
runs in seconds.
"""

import pytest

from repro.experiments import figures

TINY = dict(duration=4.0, seeds=(0,))
TWO = ("DCRD", "D-Tree")


def test_figure2_axis_and_metrics():
    result = figures.figure2(strategies=TWO, **TINY)
    assert result.x_values == list(figures.FAILURE_PROBABILITIES)
    for metric in figures.PANEL_METRICS:
        series = result.series("DCRD", metric)
        assert len(series) == len(figures.FAILURE_PROBABILITIES)


def test_figure3_uses_degree_five(monkeypatch):
    captured = {}
    original = figures.sweep

    def spy(name, x_label, configs, seeds, strategies, progress=None, **kwargs):
        captured.update(configs)
        return original(
            name, x_label, configs, seeds, strategies, progress, **kwargs
        )

    monkeypatch.setattr(figures, "sweep", spy)
    figures.figure3(strategies=("DCRD",), **TINY)
    assert all(config.degree == 5 for config in captured.values())
    assert all(config.topology_kind == "regular" for config in captured.values())


def test_figure4_sweeps_degree():
    result = figures.figure4(strategies=("DCRD",), **TINY)
    assert result.x_values == list(figures.NODE_DEGREES)


def test_figure5_sweeps_size():
    result = figures.figure5(
        duration=3.0, seeds=(0,), sizes=(10, 20), strategies=("DCRD",)
    )
    assert result.x_values == [10, 20]


def test_figure6_sweeps_deadline_factor(monkeypatch):
    captured = {}
    original = figures.sweep

    def spy(name, x_label, configs, seeds, strategies, progress=None, **kwargs):
        captured.update(configs)
        return original(
            name, x_label, configs, seeds, strategies, progress, **kwargs
        )

    monkeypatch.setattr(figures, "sweep", spy)
    result = figures.figure6(strategies=("DCRD",), **TINY)
    assert result.x_values == list(figures.DEADLINE_FACTORS)
    assert {config.deadline_factor for config in captured.values()} == set(
        figures.DEADLINE_FACTORS
    )


def test_figure7_returns_cdfs_for_both_topologies():
    curves = figures.figure7(duration=6.0, seeds=(0,))
    assert set(curves) == {"full-mesh", "degree-8"}
    for grid, values in curves.values():
        assert len(grid) == len(values)
        assert values == sorted(values)  # CDF is monotone
        assert all(0.0 <= v <= 1.0 for v in values)


def test_figure8_produces_one_sweep_per_m():
    results = figures.figure8(
        duration=3.0,
        seeds=(0,),
        strategies=("DCRD",),
        m_values=(1, 2),
        loss_rates=(1e-3, 1e-1),
    )
    assert set(results) == {1, 2}
    for m, result in results.items():
        assert result.x_values == [1e-3, 1e-1]


def test_table_scales_duration_and_seeds_per_entry():
    """One --duration / --repetitions pair means one thing for every
    consumer of the table: these are the experiment script's rules."""
    table = figures.ARTIFACTS
    assert table["fig2"].scale(60.0, 3) == (60.0, (0, 1, 2))
    assert table["fig5"].scale(60.0, 3) == (30.0, (0, 1))
    assert table["fig5"].scale(8.0, 1) == (10.0, (0,))
    assert table["fig7"].scale(60.0, 3) == (120.0, (0, 1, 2))
    assert table["ablations"].scale(60.0, 3) == (30.0, (0, 1, 2))
    assert table["congestion"].scale(60.0, 3) == (20.0, (0, 1, 2))
    assert table["heterogeneous"].scale(60.0, 3) == (30.0, (0, 1, 2))
    assert [name for name, entry in table.items() if not entry.cached] == ["churn"]


def test_table_renders_one_text_per_output():
    ablations = figures.ARTIFACTS["ablations"]
    result = ablations.run(duration=4.0, repetitions=1)
    tables = ablations.tables(result)
    assert list(tables) == ["ablation_monitoring", "ablation_ack_timeout"]
    assert "Packets Sent / Subscriber" in tables["ablation_ack_timeout"]
    assert "Packets Sent / Subscriber" not in tables["ablation_monitoring"]


@pytest.mark.parametrize(
    "name", [name for name in figures.ARTIFACTS if not name.startswith("fig")]
)
def test_every_study_claim_reads_its_result(name):
    """Each claim check reads the real shape of its driver's result (the
    claims gate itself runs in benchmarks/bench_figures.py)."""
    artifact = figures.ARTIFACTS[name]
    result = artifact.run(duration=2.0, repetitions=1)
    outcomes = artifact.verify(result)
    assert [o.claim for o in outcomes] == [claim for claim, _ in artifact.claims]
    assert all(o.artifact == name and o.detail for o in outcomes)
    assert set(artifact.tables(result)) == {table for table, _ in artifact.outputs}
