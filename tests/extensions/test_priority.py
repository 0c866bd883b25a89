"""Tests for the priority-queueing (EDF) baseline and study."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.extensions.priority import priority_queueing_study


BASE = ExperimentConfig(
    topology_kind="regular",
    degree=5,
    duration=15.0,
    failure_probability=0.0,
    publish_interval=0.125,
    link_service_time=0.02,
    deadline_factor_choices=(4.0, 16.0),
    num_topics=10,
)


def test_pdtree_registered():
    from repro.experiments.runner import STRATEGIES

    assert "P-DTree" in STRATEGIES


def test_pdtree_equals_dtree_on_fifo_links():
    # Priorities are inert without an EDF discipline.
    pdtree = run_single(BASE, "P-DTree", seed=1)
    dtree = run_single(BASE, "D-Tree", seed=1)
    assert pdtree.as_dict() == dtree.as_dict() or (
        pdtree.delivery_ratio == dtree.delivery_ratio
        and pdtree.data_transmissions == dtree.data_transmissions
    )


def test_edf_reordering_helps_at_moderate_load():
    fifo = run_single(BASE, "P-DTree", seed=0)
    edf = run_single(BASE.with_updates(queue_discipline="edf"), "P-DTree", seed=0)
    assert edf.qos_delivery_ratio >= fifo.qos_delivery_ratio
    # Reordering never loses packets.
    assert edf.delivery_ratio == pytest.approx(fifo.delivery_ratio, abs=0.005)


def test_drop_expired_trades_delivery_for_timeliness():
    overload = BASE.with_updates(publish_interval=0.0625)
    edf = run_single(overload.with_updates(queue_discipline="edf"), "P-DTree", seed=0)
    drop = run_single(
        overload.with_updates(queue_discipline="edf+drop"),
        "P-DTree",
        seed=0,
    )
    assert drop.qos_delivery_ratio > edf.qos_delivery_ratio
    assert drop.delivery_ratio < edf.delivery_ratio


def test_drop_expired_is_noop_without_overload():
    light = BASE.with_updates(publish_interval=1.0)
    plain = run_single(light.with_updates(queue_discipline="edf"), "P-DTree", seed=2)
    drop = run_single(
        light.with_updates(queue_discipline="edf+drop"),
        "P-DTree",
        seed=2,
    )
    assert drop.delivery_ratio == pytest.approx(plain.delivery_ratio, abs=0.002)


def test_study_returns_one_sweep_per_mode():
    results = priority_queueing_study(
        duration=5.0,
        seeds=(0,),
        publish_intervals=(0.5,),
        modes=("fifo", "edf"),
    )
    assert set(results) == {"fifo", "edf"}
    for result in results.values():
        assert result.strategies == ["P-DTree"]
