"""Export sweep results to machine-readable formats (CSV / dicts).

The ASCII tables in :mod:`repro.experiments.report` are for eyeballs; this
module feeds plotting pipelines. A :class:`~repro.experiments.sweeps.SweepResult`
flattens to one CSV row per (x, strategy) cell with every summary field, so
any plotting tool can regenerate the paper's figures from the dump.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.sweeps import SweepResult

#: Summary fields exported per cell, in column order.
EXPORT_FIELDS = (
    "delivery_ratio",
    "qos_delivery_ratio",
    "packets_per_subscriber",
    "traffic_per_subscriber",
    "messages_published",
    "expected_deliveries",
    "delivered",
    "on_time",
    "duplicates",
    "data_transmissions",
    "mean_delay",
    "p95_delay",
)


def sweep_rows(result: SweepResult) -> List[Dict[str, object]]:
    """Flatten a sweep into one dict per (x, strategy) cell."""
    rows: List[Dict[str, object]] = []
    for x in result.x_values:
        for strategy in result.strategies:
            summary = result.cells[x][strategy]
            row: Dict[str, object] = {
                "sweep": result.name,
                result.x_label: x,
                "strategy": strategy,
            }
            for field in EXPORT_FIELDS:
                row[field] = getattr(summary, field)
            rows.append(row)
    return rows


def sweep_to_csv(
    result: SweepResult,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Render a sweep as CSV; optionally also write it to *path*."""
    rows = sweep_rows(result)
    buffer = io.StringIO()
    if rows:
        writer = csv.DictWriter(
            buffer, fieldnames=list(rows[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
