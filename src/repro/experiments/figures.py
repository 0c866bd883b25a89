"""One driver per figure of the paper's evaluation (§IV, Figures 2–8),
and the one table of every figure and study the repo regenerates.

Every function reproduces the corresponding figure's data: the same axis,
the same strategies, the same metrics — only the simulated duration and the
number of repeated topologies are scaled down by default (pure-Python event
simulation is slower than the authors' simulator). Pass
``duration=PAPER_DURATION`` and ``seeds=range(10)`` to restore the paper's
full setting on identical code paths.

The paper has no numbered tables; Figures 2–8 constitute the whole
evaluation, and EXPERIMENTS.md records paper-vs-measured values for each.

:data:`ARTIFACTS` lists those figures beside the design-choice ablations
and the extension studies. Each entry says how one ``--duration`` /
``--repetitions`` pair scales into its driver's duration and seeds, which
tables it writes with which metrics, and which claims
(:mod:`repro.experiments.validation`) its result must meet. The CLI's
``figure`` / ``study`` commands, ``scripts/run_experiments.py`` and
``benchmarks/bench_figures.py`` are loops over it.

Every driver accepts an optional
:class:`~repro.experiments.sweeps.SweepExecutor`: passing one shares a
worker pool and a content-addressed cell cache across figures, so a
re-run regenerates only figures whose cells changed (see docs/SWEEPS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import validation as v
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_cdf, render_panels, render_sweep
from repro.experiments.runner import DEFAULT_STRATEGIES
from repro.experiments.sweeps import (
    ProgressHook,
    SweepExecutor,
    SweepResult,
    run_repetitions,
    sweep,
)
from repro.extensions.ablations import ack_timeout_ablation, monitoring_mode_ablation
from repro.extensions.churn import churn_study
from repro.extensions.congestion import congestion_study
from repro.extensions.fec import fec_study
from repro.extensions.heterogeneous import heterogeneity_study
from repro.extensions.node_failures import node_failure_study
from repro.extensions.priority import priority_queueing_study
from repro.metrics.cdf import interpolate_cdf

#: Failure-probability axis of Figures 2 and 3.
FAILURE_PROBABILITIES = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)

#: Node-degree axis of Figure 4.
NODE_DEGREES = (3, 4, 5, 6, 7, 8, 9, 10)

#: Network-size axis of Figure 5.
NETWORK_SIZES = (10, 20, 40, 80, 120, 160)

#: Deadline-multiplier axis of Figure 6.
DEADLINE_FACTORS = (1.5, 2.0, 3.0, 4.0, 5.0, 6.0)

#: Packet-loss axis of Figure 8.
LOSS_RATES = (1e-4, 1e-3, 1e-2, 1e-1)

#: Metrics reported by the three-panel figures (2–5).
PANEL_METRICS = ("delivery_ratio", "qos_delivery_ratio", "packets_per_subscriber")


def _base_config(duration: float, **overrides: object) -> ExperimentConfig:
    return ExperimentConfig(duration=duration).with_updates(**overrides)


def figure2(
    duration: float = 60.0,
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 2: 20-node full mesh, failure probability 0 → 0.1."""
    configs = {
        pf: _base_config(duration, topology_kind="full_mesh", failure_probability=pf)
        for pf in FAILURE_PROBABILITIES
    }
    return sweep(
        "Figure 2: full mesh", "failure probability", configs, seeds,
        strategies, progress, executor=executor,
    )


def figure3(
    duration: float = 60.0,
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 3: 20-node overlay with degree 5, failure probability 0 → 0.1."""
    configs = {
        pf: _base_config(
            duration, topology_kind="regular", degree=5, failure_probability=pf
        )
        for pf in FAILURE_PROBABILITIES
    }
    return sweep(
        "Figure 3: degree 5", "failure probability", configs, seeds,
        strategies, progress, executor=executor,
    )


def figure4(
    duration: float = 60.0,
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 4: node degree 3 → 10 at Pf = 0.06."""
    configs = {
        degree: _base_config(
            duration, topology_kind="regular", degree=degree, failure_probability=0.06
        )
        for degree in NODE_DEGREES
    }
    return sweep(
        "Figure 4: connectivity", "node degree", configs, seeds, strategies,
        progress, executor=executor,
    )


def figure5(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    sizes: Sequence[int] = NETWORK_SIZES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 5: network size 10 → 160 nodes, degree 8, Pf = 0.06."""
    configs = {
        size: _base_config(
            duration,
            topology_kind="regular",
            degree=8,
            num_nodes=size,
            failure_probability=0.06,
        )
        for size in sizes
    }
    return sweep(
        "Figure 5: scalability", "network size", configs, seeds, strategies,
        progress, executor=executor,
    )


def figure6(
    duration: float = 60.0,
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 6: QoS delivery ratio vs deadline multiplier, degree 8, Pf = 0.06."""
    configs = {
        factor: _base_config(
            duration,
            topology_kind="regular",
            degree=8,
            failure_probability=0.06,
            deadline_factor=factor,
        )
        for factor in DEADLINE_FACTORS
    }
    return sweep(
        "Figure 6: QoS requirement", "deadline multiplier", configs, seeds,
        strategies, progress, executor=executor,
    )


def figure7(
    duration: float = 120.0,
    seeds: Sequence[int] = (0, 1, 2),
    grid: Sequence[float] = tuple(1.0 + 0.125 * i for i in range(13)),
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, Tuple[List[float], List[float]]]:
    """Figure 7: CDF of normalised delay of DCRD's deadline-missing packets.

    Returns ``{topology_label: (grid, cdf_at_grid)}`` for the paper's two
    topologies (full mesh and degree 8), both at Pf = 0.06. The x-axis is
    ``actual delay / delay requirement`` (starts at 1: only late packets
    are included).
    """
    results: Dict[str, Tuple[List[float], List[float]]] = {}
    settings = {
        "full-mesh": _base_config(
            duration, topology_kind="full_mesh", failure_probability=0.06
        ),
        "degree-8": _base_config(
            duration, topology_kind="regular", degree=8, failure_probability=0.06
        ),
    }
    for label, config in settings.items():
        summary = run_repetitions(config, "DCRD", seeds, progress, executor=executor)
        results[label] = (list(grid), interpolate_cdf(summary.late_normalized_delays, grid))
    return results


def figure8(
    duration: float = 60.0,
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = ("DCRD", "R-Tree", "D-Tree", "Multipath"),
    m_values: Sequence[int] = (1, 2),
    loss_rates: Sequence[float] = LOSS_RATES,
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> Mapping[int, SweepResult]:
    """Figure 8: QoS ratio vs packet-loss rate for m = 1 and m = 2.

    Degree 8, Pf = 0.01 (the figure's caption setting). Returns one
    :class:`SweepResult` per ``m``.
    """
    results: Dict[int, SweepResult] = {}
    for m in m_values:
        configs = {
            pl: _base_config(
                duration,
                topology_kind="regular",
                degree=8,
                failure_probability=0.01,
                loss_rate=pl,
                m=m,
            )
            for pl in loss_rates
        }
        results[m] = sweep(
            f"Figure 8: loss sweep (m={m})",
            "packet loss rate",
            configs,
            seeds,
            strategies,
            progress,
            executor=executor,
        )
    return results


def _ablations(
    duration: float,
    seeds: Sequence[int],
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> Tuple[SweepResult, SweepResult]:
    """Both design-choice ablations: (monitoring mode, ACK-timeout factor)."""
    return (
        monitoring_mode_ablation(duration, seeds, progress=progress, executor=executor),
        ack_timeout_ablation(duration, seeds, progress=progress, executor=executor),
    )


def _render(result: Any, metrics: Sequence[str]) -> str:
    """One output table: a sweep's panels, Figure 7's CDFs (no metrics:
    the curves are the table), or one block per sweep of a mapping with
    its metrics one under the other."""
    if isinstance(result, SweepResult):
        return render_panels(result, metrics)
    if not metrics:
        return render_cdf(result)
    return "\n\n".join(
        "\n".join(render_sweep(part, metric) for metric in metrics)
        for part in result.values()
    )


#: A claim: its text, and a check of the driver's result -> (passed, detail).
Claim = Tuple[str, Callable[[Any], Tuple[bool, str]]]


@dataclass(frozen=True)
class Artifact:
    """One figure or study: how to run, scale, render and check it.

    ``name`` is its one name: the script's ``--only`` choice and the CLI's
    ``study`` choice (``figN`` is the CLI's ``figure N``). ``outputs`` are
    the ``(table name, metrics)`` pairs it writes, one per part of the
    driver's result when there is more than one. The driver runs
    ``max(duration / divisor, floor)`` simulated seconds, on one seed
    fewer than asked (but at least one) when ``drop_seed``. An entry that
    is not ``cached`` runs outside the sweep executor: its driver is not a
    grid of plain (config, strategy, seed) cells.
    """

    name: str
    driver: Callable[..., Any]
    outputs: Tuple[Tuple[str, Tuple[str, ...]], ...]
    claims: Tuple[Claim, ...] = ()
    divisor: int = 1
    floor: float = 0.0
    drop_seed: bool = False
    cached: bool = True

    @property
    def label(self) -> str:
        """How claim reports name it: ``figure2`` ... or the study's name."""
        if self.name.startswith("fig"):
            return "figure" + self.name[3:]
        return self.name

    def scale(self, duration: float, repetitions: int) -> Tuple[float, Tuple[int, ...]]:
        """The driver's (duration, seeds) for ``--duration`` / ``--repetitions``."""
        seeds = tuple(range(repetitions))
        if self.drop_seed:
            seeds = seeds[: max(1, len(seeds) - 1)]
        return max(duration / self.divisor, self.floor), seeds

    def run(
        self,
        duration: float,
        repetitions: int,
        progress: Optional[ProgressHook] = None,
        executor: Optional[SweepExecutor] = None,
    ) -> Any:
        """Run the driver at the scaled ``(duration, seeds)``."""
        duration, seeds = self.scale(duration, repetitions)
        if not self.cached:
            return self.driver(duration, seeds, progress=progress)
        return self.driver(duration, seeds, progress=progress, executor=executor)

    def tables(self, result: Any) -> Dict[str, str]:
        """Table name -> rendered text, in ``outputs`` order."""
        parts = result if len(self.outputs) > 1 else (result,)
        return {
            name: _render(part, metrics)
            for (name, metrics), part in zip(self.outputs, parts)
        }

    def verify(self, result: Any) -> List[v.ClaimOutcome]:
        """Check every claim against the driver's result."""
        outcomes = []
        for claim, check in self.claims:
            passed, detail = check(result)
            outcomes.append(v.ClaimOutcome(self.label, claim, passed, detail))
        return outcomes


_QOS = ("qos_delivery_ratio",)
_DELIVERY_QOS = ("delivery_ratio", "qos_delivery_ratio")
_QOS_PACKETS = ("qos_delivery_ratio", "packets_per_subscriber")

#: Every figure and study, in the order the experiment script runs them.
ARTIFACTS: Dict[str, Artifact] = {
    artifact.name: artifact
    for artifact in (
        Artifact(
            "fig2", figure2, (("fig2", PANEL_METRICS),),
            claims=(
                ("DCRD delivers ~100% at every failure probability",
                 v.fig2_dcrd_delivers_everything),
                ("fixed trees degrade with Pf", v.fig2_trees_degrade),
                ("R-Tree is the more robust tree", v.fig2_rtree_beats_dtree),
                ("R-Tree sends exactly 1 packet/subscriber in the mesh",
                 v.fig2_rtree_unit_traffic),
                ("Multipath sends >2x DCRD's traffic", v.fig2_multipath_most_traffic),
                ("D-Tree delivers under 95% at the worst Pf",
                 v.fig2_dtree_loses_at_worst_pf),
            ),
        ),
        Artifact(
            "fig3", figure3, (("fig3", PANEL_METRICS),),
            claims=(
                ("DCRD beats both trees on QoS delivery",
                 v.fig3_dcrd_beats_trees_on_qos),
                ("ORACLE upper-bounds DCRD everywhere", v.fig3_oracle_upper_bound),
                ("Multipath sends >1.5x DCRD's packets at the worst Pf",
                 v.fig3_multipath_pays_for_redundancy),
            ),
        ),
        Artifact(
            "fig4", figure4, (("fig4", PANEL_METRICS),),
            claims=(
                ("sparser overlays are harder for DCRD", v.fig4_sparse_is_harder),
                ("degree 8 puts DCRD within a few points of ORACLE",
                 v.fig4_high_degree_near_oracle),
                ("DCRD meets >90% of deadlines at degree 8",
                 v.fig4_degree8_meets_most_deadlines),
                ("degree 10 puts DCRD within a few points of ORACLE",
                 v.fig4_degree10_near_oracle),
            ),
        ),
        Artifact(
            "fig5", figure5, (("fig5", PANEL_METRICS),),
            divisor=2, floor=10.0, drop_seed=True,
            claims=(
                ("fixed trees degrade with network size",
                 v.fig5_trees_degrade_with_size),
                ("DCRD keeps delivering at every size", v.fig5_dcrd_scales),
                ("DCRD out-delivers D-Tree at the largest size",
                 v.fig5_dcrd_beats_dtree_at_largest),
            ),
        ),
        Artifact(
            "fig6", figure6, (("fig6", _QOS),),
            claims=(
                ("looser deadlines help DCRD substantially",
                 v.fig6_looser_deadlines_help_dcrd),
                ("fixed trees barely react to deadline changes",
                 v.fig6_trees_insensitive),
                ("Multipath's edge exists only at tight deadlines",
                 v.fig6_multipath_wins_only_when_tight),
                ("DCRD meets >93% of 4x deadlines", v.fig6_four_x_meets_most_deadlines),
            ),
        ),
        Artifact(
            "fig7", figure7, (("fig7", ()),),
            floor=120.0,
            claims=(
                ("late-packet CDFs are monotone", v.fig7_cdfs_monotone),
                ("the full mesh dominates the sparse overlay",
                 v.fig7_mesh_dominates_sparse),
                ("late packets have a short tail", v.fig7_short_tail),
                (">30% of late packets arrive within 1.5x the requirement",
                 v.fig7_third_within_half_past),
            ),
        ),
        Artifact(
            "fig8", figure8, (("fig8", _QOS),),
            claims=(
                ("m=1 is at least as good as m=2 for DCRD at low loss",
                 v.fig8_m1_beats_m2_at_low_loss),
                ("m=2 helps the trees under heavy loss", v.fig8_m2_helps_at_heavy_loss),
                ("m=2 costs DCRD and D-Tree under 2 points at heavy loss",
                 v.fig8_m2_costs_little_at_heavy_loss),
                ("heavy loss hurts DCRD's QoS at m=1", v.fig8_heavy_loss_hurts_m1),
            ),
        ),
        Artifact(
            "ablations", _ablations,
            (("ablation_monitoring", _QOS), ("ablation_ack_timeout", _QOS_PACKETS)),
            divisor=2,
            claims=(
                ("a 4x ACK timeout meets no more deadlines than 2x",
                 v.ablation_patience_costs_qos),
                ("sampled monitoring costs DCRD under 5 points of QoS",
                 v.ablation_sampling_costs_little),
            ),
        ),
        Artifact(
            "nodes", node_failure_study, (("extension_node_failures", _DELIVERY_QOS),),
            divisor=2,
            claims=(
                ("DCRD out-delivers D-Tree at the worst crash probability",
                 v.nodes_dcrd_bypasses_crashes),
            ),
        ),
        Artifact(
            "congestion", congestion_study, (("extension_congestion", _QOS_PACKETS),),
            divisor=3,
            claims=(
                ("DCRD's QoS is within 2 points of D-Tree's at every load",
                 v.congestion_dcrd_matches_tree_qos),
                ("DCRD sends at most 1.2x D-Tree's packets at every load",
                 v.congestion_dcrd_sends_tree_packets),
                ("queueing alone costs D-Tree >10 points of QoS at the top load",
                 v.congestion_reaches_saturation),
            ),
        ),
        # Churn mutates the live workload mid-run: its runs are not plain
        # (config, strategy, seed) cells, so they stay outside the cache.
        Artifact(
            "churn", churn_study, (("extension_churn", _DELIVERY_QOS),),
            divisor=2, cached=False,
            claims=(
                ("DCRD delivers >95% at every churn rate",
                 v.churn_dcrd_keeps_delivering),
            ),
        ),
        Artifact(
            "fec", fec_study,
            (("extension_fec", _DELIVERY_QOS + ("traffic_per_subscriber",)),),
            divisor=2,
            claims=(
                ("FEC out-delivers D-Tree at the worst Pf", v.fec_beats_no_redundancy),
                ("DCRD delivers at least as much as FEC at the worst Pf",
                 v.fec_rerouting_beats_fec),
                ("FEC sends less traffic than Multipath at the worst Pf",
                 v.fec_cheaper_than_duplication),
            ),
        ),
        Artifact(
            "priority", priority_queueing_study,
            (("extension_priority", ("qos_delivery_ratio", "delivery_ratio")),),
            divisor=2,
            claims=(
                ("dropping expired frames beats FIFO and EDF on QoS in overload",
                 v.priority_dropping_beats_overload),
                ("dropping expired frames costs delivery in overload",
                 v.priority_dropping_costs_delivery),
            ),
        ),
        Artifact(
            "heterogeneous", heterogeneity_study,
            (("extension_heterogeneous", _QOS_PACKETS),),
            divisor=2,
            claims=(
                ("Theorem 1's order sends no more than the delay-only order",
                 v.heterogeneous_theorem_sends_less),
                ("Theorem 1's order keeps QoS within 3 points of the delay-only order",
                 v.heterogeneous_theorem_keeps_qos),
            ),
        ),
    )
}
