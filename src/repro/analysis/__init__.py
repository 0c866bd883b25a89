"""Post-hoc analysis tools: route stretch and control-plane convergence."""

from repro.analysis.convergence import ConvergenceReport, convergence_report
from repro.analysis.stretch import StretchReport, stretch_report

__all__ = [
    "ConvergenceReport",
    "StretchReport",
    "convergence_report",
    "stretch_report",
]
