"""Structured verification of the paper's qualitative claims.

EXPERIMENTS.md records paper-vs-measured numbers once; this module encodes
the *shape* claims — who wins, what degrades, where crossovers sit — as
executable checks. Each check takes the result of one driver and returns
``(passed, detail)``; the table of figures and studies
(:data:`repro.experiments.figures.ARTIFACTS`) names each check as a claim
of its entry, so any future change to the library can re-verify the whole
reproduction in one call:

>>> from repro.experiments.figures import ARTIFACTS
>>> fig2 = ARTIFACTS["fig2"]
>>> outcomes = fig2.verify(fig2.run(duration=20.0, repetitions=2))
>>> all(o.passed for o in outcomes)
True

Checks are deliberately tolerant (they assert orderings and coarse bands,
not point values) so they hold at reduced simulation scales; the three
documented deviations (EXPERIMENTS.md D1–D3) are *not* asserted in the
paper's direction — the measured behaviour is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.experiments.sweeps import SweepResult


@dataclass(frozen=True)
class ClaimOutcome:
    """One verified claim of one figure or study."""

    artifact: str
    claim: str
    passed: bool
    detail: str = ""


def _series(result: SweepResult, strategy: str, metric: str) -> Dict[object, float]:
    return dict(zip(result.x_values, result.series(strategy, metric)))


# ----------------------------------------------------------------------
# Per-figure checks
# ----------------------------------------------------------------------
def fig2_dcrd_delivers_everything(result: SweepResult):
    values = result.series("DCRD", "delivery_ratio")
    worst = min(values)
    return worst > 0.995, f"min DCRD delivery {worst:.4f}"


def fig2_trees_degrade(result: SweepResult):
    dtree = _series(result, "D-Tree", "delivery_ratio")
    first, last = result.x_values[0], result.x_values[-1]
    return (
        dtree[last] < dtree[first] - 0.05,
        f"D-Tree delivery {dtree[first]:.3f} -> {dtree[last]:.3f}",
    )


def fig2_rtree_beats_dtree(result: SweepResult):
    last = result.x_values[-1]
    rtree = _series(result, "R-Tree", "delivery_ratio")[last]
    dtree = _series(result, "D-Tree", "delivery_ratio")[last]
    return rtree > dtree, f"R-Tree {rtree:.3f} vs D-Tree {dtree:.3f} at Pf={last}"


def fig2_rtree_unit_traffic(result: SweepResult):
    values = result.series("R-Tree", "packets_per_subscriber")
    return (
        max(abs(v - 1.0) for v in values) < 0.01,
        f"R-Tree pkts/sub in [{min(values):.4f}, {max(values):.4f}]",
    )


def fig2_multipath_most_traffic(result: SweepResult):
    last = result.x_values[-1]
    multipath = _series(result, "Multipath", "packets_per_subscriber")[last]
    dcrd = _series(result, "DCRD", "packets_per_subscriber")[last]
    return multipath > 2 * dcrd, f"Multipath {multipath:.2f} vs DCRD {dcrd:.2f}"


def fig2_dtree_loses_at_worst_pf(result: SweepResult):
    worst = result.x_values[-1]
    dtree = _series(result, "D-Tree", "delivery_ratio")[worst]
    return dtree < 0.95, f"D-Tree delivery {dtree:.3f} at Pf={worst}"


def fig3_dcrd_beats_trees_on_qos(result: SweepResult):
    last = result.x_values[-1]
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")[last]
    rtree = _series(result, "R-Tree", "qos_delivery_ratio")[last]
    dtree = _series(result, "D-Tree", "qos_delivery_ratio")[last]
    return (
        dcrd > rtree and dcrd > dtree,
        f"DCRD {dcrd:.3f} vs R-Tree {rtree:.3f}, D-Tree {dtree:.3f}",
    )


def fig3_oracle_upper_bound(result: SweepResult):
    for x in result.x_values:
        oracle = _series(result, "ORACLE", "qos_delivery_ratio")[x]
        dcrd = _series(result, "DCRD", "qos_delivery_ratio")[x]
        if oracle < dcrd - 1e-9:
            return False, f"ORACLE {oracle:.3f} < DCRD {dcrd:.3f} at {x}"
    return True, "ORACLE >= DCRD at every point"


def fig3_multipath_pays_for_redundancy(result: SweepResult):
    worst = result.x_values[-1]
    multipath = result.cell(worst, "Multipath").packets_per_subscriber
    dcrd = result.cell(worst, "DCRD").packets_per_subscriber
    return multipath > 1.5 * dcrd, f"Multipath {multipath:.2f} vs DCRD {dcrd:.2f}"


def fig4_sparse_is_harder(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")
    return (
        dcrd[3] < dcrd[8],
        f"DCRD QoS degree 3: {dcrd[3]:.3f}, degree 8: {dcrd[8]:.3f}",
    )


def fig4_high_degree_near_oracle(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")[8]
    oracle = _series(result, "ORACLE", "qos_delivery_ratio")[8]
    return oracle - dcrd < 0.08, f"gap {oracle - dcrd:.3f} at degree 8"


def fig4_degree8_meets_most_deadlines(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")[8]
    return dcrd > 0.90, f"DCRD QoS {dcrd:.3f} at degree 8"


def fig4_degree10_near_oracle(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")[10]
    oracle = _series(result, "ORACLE", "qos_delivery_ratio")[10]
    return oracle - dcrd < 0.08, f"gap {oracle - dcrd:.3f} at degree 10"


def fig5_trees_degrade_with_size(result: SweepResult):
    dtree = result.series("D-Tree", "delivery_ratio")
    return dtree[-1] < dtree[0], f"D-Tree {dtree[0]:.3f} -> {dtree[-1]:.3f}"


def fig5_dcrd_scales(result: SweepResult):
    dcrd = result.series("DCRD", "delivery_ratio")
    return min(dcrd) > 0.97, f"min DCRD delivery {min(dcrd):.3f}"


def fig5_dcrd_beats_dtree_at_largest(result: SweepResult):
    largest = result.x_values[-1]
    dcrd = result.cell(largest, "DCRD").delivery_ratio
    dtree = result.cell(largest, "D-Tree").delivery_ratio
    return dcrd > dtree, f"DCRD {dcrd:.3f} vs D-Tree {dtree:.3f} at {largest} nodes"


def fig6_looser_deadlines_help_dcrd(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")
    xs = result.x_values
    return dcrd[xs[-1]] > dcrd[xs[0]] + 0.03, (
        f"DCRD QoS {dcrd[xs[0]]:.3f} at {xs[0]}x -> {dcrd[xs[-1]]:.3f} at {xs[-1]}x"
    )


def fig6_trees_insensitive(result: SweepResult):
    dtree = result.series("D-Tree", "qos_delivery_ratio")
    return max(dtree) - min(dtree) < 0.08, (
        f"D-Tree QoS spread {max(dtree) - min(dtree):.3f}"
    )


def fig6_multipath_wins_only_when_tight(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")
    multipath = _series(result, "Multipath", "qos_delivery_ratio")
    tightest, loosest = result.x_values[0], result.x_values[-1]
    tight_gap = multipath[tightest] - dcrd[tightest]
    loose_gap = multipath[loosest] - dcrd[loosest]
    return loose_gap < tight_gap, (
        f"Multipath-DCRD gap {tight_gap:+.3f} at {tightest}x, "
        f"{loose_gap:+.3f} at {loosest}x"
    )


def fig6_four_x_meets_most_deadlines(result: SweepResult):
    dcrd = _series(result, "DCRD", "qos_delivery_ratio")[4.0]
    return dcrd > 0.93, f"DCRD QoS {dcrd:.3f} at 4.0x"


def fig7_cdfs_monotone(curves: Mapping[str, tuple]):
    for label, (_, values) in curves.items():
        if values != sorted(values):
            return False, f"{label} CDF not monotone"
    return True, "all CDFs monotone"


def fig7_mesh_dominates_sparse(curves: Mapping[str, tuple]):
    mesh = curves["full-mesh"][1]
    sparse = curves["degree-8"][1]
    ahead = sum(1 for a, b in zip(mesh, sparse) if a >= b - 0.02)
    return ahead >= len(mesh) - 1, (
        f"mesh >= degree-8 at {ahead}/{len(mesh)} grid points"
    )


def fig7_short_tail(curves: Mapping[str, tuple]):
    for label, (grid, values) in curves.items():
        lookup = dict(zip(grid, values))
        if lookup.get(2.0, 0.0) < 0.8:
            return False, f"{label}: only {lookup.get(2.0, 0.0):.2f} within 2x"
    return True, "≥80% of late packets within 2x the requirement"


def fig7_third_within_half_past(curves: Mapping[str, tuple]):
    shares = {
        label: dict(zip(grid, values))[1.5] for label, (grid, values) in curves.items()
    }
    detail = ", ".join(f"{label} {share:.2f}" for label, share in shares.items())
    return all(share > 0.3 for share in shares.values()), f"within 1.5x: {detail}"


def fig8_m1_beats_m2_at_low_loss(results: Mapping[int, SweepResult]):
    low = results[1].x_values[0]
    m1 = _series(results[1], "DCRD", "qos_delivery_ratio")[low]
    m2 = _series(results[2], "DCRD", "qos_delivery_ratio")[low]
    return m1 >= m2 - 0.002, f"m=1 {m1:.4f} vs m=2 {m2:.4f} at Pl={low}"


def fig8_m2_helps_at_heavy_loss(results: Mapping[int, SweepResult]):
    high = results[1].x_values[-1]
    outcomes = []
    for name in ("R-Tree", "D-Tree"):
        m1 = _series(results[1], name, "qos_delivery_ratio")[high]
        m2 = _series(results[2], name, "qos_delivery_ratio")[high]
        outcomes.append(m2 > m1)
    return all(outcomes), f"trees m=2 > m=1 at Pl={high}: {outcomes}"


def fig8_m2_costs_little_at_heavy_loss(results: Mapping[int, SweepResult]):
    high = results[1].x_values[-1]
    gaps = {
        name: results[2].cell(high, name).qos_delivery_ratio
        - results[1].cell(high, name).qos_delivery_ratio
        for name in ("DCRD", "D-Tree")
    }
    detail = ", ".join(f"{name} {gap:+.3f}" for name, gap in gaps.items())
    passed = all(gap > -0.02 for gap in gaps.values())
    return passed, f"m=2 - m=1 at Pl={high}: {detail}"


def fig8_heavy_loss_hurts_m1(results: Mapping[int, SweepResult]):
    dcrd = results[1].series("DCRD", "qos_delivery_ratio")
    return dcrd[0] > dcrd[-1], f"DCRD m=1 QoS {dcrd[0]:.4f} -> {dcrd[-1]:.4f}"


# ----------------------------------------------------------------------
# Per-study checks
# ----------------------------------------------------------------------
def ablation_patience_costs_qos(results: Tuple[SweepResult, SweepResult]):
    qos = _series(results[1], "DCRD", "qos_delivery_ratio")
    return qos[2.0] >= qos[4.0], f"DCRD QoS {qos[2.0]:.4f} at 2x, {qos[4.0]:.4f} at 4x"


def ablation_sampling_costs_little(results: Tuple[SweepResult, SweepResult]):
    qos = _series(results[0], "DCRD", "qos_delivery_ratio")
    gap = qos["analytic"] - qos["sampled"]
    return abs(gap) < 0.05, f"analytic - sampled QoS {gap:+.4f}"


def nodes_dcrd_bypasses_crashes(result: SweepResult):
    worst = result.x_values[-1]
    dcrd = result.cell(worst, "DCRD").delivery_ratio
    dtree = result.cell(worst, "D-Tree").delivery_ratio
    return dcrd > dtree, f"DCRD {dcrd:.3f} vs D-Tree {dtree:.3f} at {worst}"


def congestion_dcrd_matches_tree_qos(result: SweepResult):
    gaps = [
        result.cell(x, "DCRD").qos_delivery_ratio
        - result.cell(x, "D-Tree").qos_delivery_ratio
        for x in result.x_values
    ]
    worst = max(gaps, key=abs)
    return abs(worst) <= 0.02, f"largest DCRD - D-Tree QoS gap {worst:+.4f}"


def congestion_dcrd_sends_tree_packets(result: SweepResult):
    ratios = [
        result.cell(x, "DCRD").packets_per_subscriber
        / result.cell(x, "D-Tree").packets_per_subscriber
        for x in result.x_values
    ]
    return max(ratios) <= 1.2, f"largest DCRD / D-Tree packets {max(ratios):.3f}"


def congestion_reaches_saturation(result: SweepResult):
    dtree = result.series("D-Tree", "qos_delivery_ratio")
    return dtree[-1] < dtree[0] - 0.1, f"D-Tree QoS {dtree[0]:.3f} -> {dtree[-1]:.3f}"


def churn_dcrd_keeps_delivering(result: SweepResult):
    worst = min(result.series("DCRD", "delivery_ratio"))
    return worst > 0.95, f"min DCRD delivery {worst:.4f}"


def fec_beats_no_redundancy(result: SweepResult):
    worst = result.x_values[-1]
    fec = result.cell(worst, "FEC").delivery_ratio
    dtree = result.cell(worst, "D-Tree").delivery_ratio
    return fec > dtree, f"FEC {fec:.3f} vs D-Tree {dtree:.3f} at Pf={worst}"


def fec_rerouting_beats_fec(result: SweepResult):
    worst = result.x_values[-1]
    dcrd = result.cell(worst, "DCRD").delivery_ratio
    fec = result.cell(worst, "FEC").delivery_ratio
    return dcrd >= fec, f"DCRD {dcrd:.3f} vs FEC {fec:.3f} at Pf={worst}"


def fec_cheaper_than_duplication(result: SweepResult):
    worst = result.x_values[-1]
    fec = result.cell(worst, "FEC").traffic_per_subscriber
    multipath = result.cell(worst, "Multipath").traffic_per_subscriber
    return fec < multipath, f"FEC {fec:.2f} vs Multipath {multipath:.2f} at Pf={worst}"


def priority_dropping_beats_overload(results: Mapping[str, SweepResult]):
    qos = {
        mode: result.cell(0.0625, "P-DTree").qos_delivery_ratio
        for mode, result in results.items()
    }
    detail = ", ".join(f"{mode} {value:.3f}" for mode, value in qos.items())
    return qos["edf+drop"] > max(qos["fifo"], qos["edf"]), f"QoS at 0.0625 s: {detail}"


def priority_dropping_costs_delivery(results: Mapping[str, SweepResult]):
    drop = results["edf+drop"].cell(0.0625, "P-DTree").delivery_ratio
    edf = results["edf"].cell(0.0625, "P-DTree").delivery_ratio
    return drop < edf, f"delivery at 0.0625 s: edf+drop {drop:.3f} vs edf {edf:.3f}"


def heterogeneous_theorem_sends_less(result: SweepResult):
    widest = result.x_values[-1]
    theorem = result.cell(widest, "DCRD").packets_per_subscriber
    naive = result.cell(widest, "DCRD-naive-order").packets_per_subscriber
    return theorem <= naive, f"DCRD {theorem:.3f} vs naive {naive:.3f} at {widest}"


def heterogeneous_theorem_keeps_qos(result: SweepResult):
    widest = result.x_values[-1]
    theorem = result.cell(widest, "DCRD").qos_delivery_ratio
    naive = result.cell(widest, "DCRD-naive-order").qos_delivery_ratio
    passed = theorem >= naive - 0.03
    return passed, f"DCRD {theorem:.3f} vs naive {naive:.3f} at {widest}"


def render_outcomes(outcomes: List[ClaimOutcome]) -> str:
    """Human-readable PASS/FAIL listing."""
    lines = []
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        lines.append(
            f"[{status}] {outcome.artifact}: {outcome.claim} ({outcome.detail})"
        )
    return "\n".join(lines)
