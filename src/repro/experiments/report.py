"""ASCII reports: render sweep results as the rows the paper's figures plot."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.experiments.sweeps import SweepResult

#: Human labels of the three panel metrics.
METRIC_LABELS = {
    "delivery_ratio": "Delivery Ratio",
    "qos_delivery_ratio": "QoS Delivery Ratio",
    "packets_per_subscriber": "Packets Sent / Subscriber",
    "traffic_per_subscriber": "Traffic Volume / Subscriber",
    "mean_delay": "Mean End-to-End Delay (s)",
    "duplicates": "Duplicate Copies Received",
}


def format_value(value: object) -> str:
    """Uniform cell formatting (4 significant decimals for floats)."""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A plain monospace table with aligned columns."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_sweep(result: SweepResult, metric: str) -> str:
    """One metric of one sweep as a table (x column + one per strategy)."""
    headers = [result.x_label] + list(result.strategies)
    rows = result.metrics_table(metric)
    title = f"{result.name} — {METRIC_LABELS.get(metric, metric)}"
    return f"{title}\n{format_table(headers, rows)}"


def render_panels(result: SweepResult, metrics: Sequence[str]) -> str:
    """All panels of a figure (the paper's (a)/(b)/(c) subplots)."""
    return "\n\n".join(render_sweep(result, metric) for metric in metrics)


def render_cdf(
    curves: Mapping[str, Tuple[List[float], List[float]]],
    x_label: str = "delay / requirement",
) -> str:
    """Figure 7-style CDF curves as a table with one column per curve."""
    labels = list(curves)
    if not labels:
        return "(no curves)"
    grid = curves[labels[0]][0]
    headers = [x_label] + labels
    rows: List[List[object]] = []
    for index, x in enumerate(grid):
        row: List[object] = [x]
        for label in labels:
            row.append(curves[label][1][index])
        rows.append(row)
    return format_table(headers, rows)


def render_perf(summaries: Mapping[str, object]) -> str:
    """Per-strategy performance counters (one column per strategy).

    Rows are the union of all counter names found in the summaries'
    ``perf`` snapshots (control-plane solve time, tables reused vs
    re-solved, Jacobi rounds, event counts — see :mod:`repro.perf`);
    strategies without a counter show ``-``.
    """
    names: List[str] = []
    seen = set()
    for summary in summaries.values():
        for name in getattr(summary, "perf", {}) or {}:
            if name not in seen:
                seen.add(name)
                names.append(name)
    if not names:
        return "(no perf counters recorded)"
    names.sort()
    headers = ["counter"] + list(summaries)
    rows: List[List[object]] = []
    for name in names:
        row: List[object] = [name]
        for summary in summaries.values():
            perf = getattr(summary, "perf", {}) or {}
            row.append(perf[name] if name in perf else "-")
        rows.append(row)
    return format_table(headers, rows)


def render_cache_stats(values: Mapping[str, float], label: str = "sweep") -> str:
    """One-line summary of the sweep engine's ``sweep.*`` counters.

    Used by the experiment driver to report, per figure and per run, how
    much of the grid the cell cache absorbed — the line the CI sweep-smoke
    job parses.
    """
    cached = int(values.get("sweep.cells_cached", 0))
    computed = int(values.get("sweep.cells_computed", 0))
    writes = int(values.get("sweep.checkpoint_writes", 0))
    return (
        f"[{label}] cells_cached={cached} cells_computed={computed} "
        f"checkpoint_writes={writes}"
    )


def render_comparison(summaries: Mapping[str, object]) -> str:
    """A one-row-per-strategy overview of a single configuration."""
    headers = [
        "strategy",
        "delivery",
        "qos",
        "pkts/sub",
        "duplicates",
        "mean delay (ms)",
    ]
    rows = []
    for name, summary in summaries.items():
        mean_delay = getattr(summary, "mean_delay", None)
        rows.append(
            [
                name,
                getattr(summary, "delivery_ratio"),
                getattr(summary, "qos_delivery_ratio"),
                getattr(summary, "packets_per_subscriber"),
                getattr(summary, "duplicates"),
                (mean_delay or 0.0) * 1000.0,
            ]
        )
    return format_table(headers, rows)
