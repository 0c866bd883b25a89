"""Command-line interface: ``repro-sim``.

Four subcommands:

* ``compare`` — run every strategy against one configuration and print the
  comparison table (the quickstart, as a CLI);
* ``sweep`` — sweep one axis (``pf``, ``degree``, ``size``, ``deadline``,
  ``loss``) and print/export the resulting tables;
* ``figure`` — regenerate one of the paper's figures (2–8) at a chosen
  scale;
* ``study`` — run the ablations or one of the extension studies (nodes,
  congestion, churn, fec, priority, heterogeneous).

``figure`` and ``study`` run an entry of
:data:`repro.experiments.figures.ARTIFACTS` exactly as
``scripts/run_experiments.py`` does for the same ``--duration`` and
``--repetitions``, print its tables and report its claims.

Examples
--------
::

    repro-sim compare --topology regular --degree 5 --pf 0.06
    repro-sim sweep pf --values 0 0.02 0.04 --duration 30 --csv out.csv
    repro-sim figure 6 --duration 60 --repetitions 3
    repro-sim study congestion --duration 30
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import sweep_to_csv
from repro.experiments.figures import ARTIFACTS
from repro.experiments.report import render_comparison, render_perf, render_sweep
from repro.experiments.runner import (
    DEFAULT_STRATEGIES,
    build_environment,
    run_comparison,
)
from repro.experiments.sweeps import sweep as run_sweep
from repro.experiments.validation import render_outcomes
from repro.trace import export_jsonl

#: Swept axis -> (value parser, config overrides for one parsed value).
AXES = {
    "pf": (float, lambda v: {"failure_probability": v}),
    "degree": (int, lambda v: {"topology_kind": "regular", "degree": v}),
    "size": (int, lambda v: {"num_nodes": v}),
    "deadline": (float, lambda v: {"deadline_factor": v}),
    "loss": (float, lambda v: {"loss_rate": v}),
}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="full_mesh",
                        choices=("full_mesh", "regular", "waxman", "erdos_renyi"))
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--topics", type=int, default=10)
    parser.add_argument("--pf", type=float, default=0.0)
    parser.add_argument("--loss", type=float, default=1e-4)
    parser.add_argument("--deadline-factor", type=float, default=3.0)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument(
        "--ordering",
        default=None,
        metavar="LEVEL[:topic,...]",
        help="opt-in delivery-ordering guarantee: fifo, causal or total, "
        "optionally restricted to a comma-separated topic list "
        "(default: unordered delivery, the paper's semantics)",
    )
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategies", nargs="*", default=list(DEFAULT_STRATEGIES)
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="sanitize the run record (repro.record): live invariant "
        "checks + end-of-drain conservation accounting (slower)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="trace the run record (repro.record) and, for compare, "
        "export one JSONL lifecycle trace per strategy; PATH "
        "may contain a {strategy} placeholder "
        "(default: trace-<strategy>.jsonl)",
    )


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        topology_kind=args.topology,
        degree=args.degree,
        num_nodes=args.nodes,
        num_topics=args.topics,
        failure_probability=args.pf,
        loss_rate=args.loss,
        deadline_factor=args.deadline_factor,
        m=args.m,
        ordering=args.ordering,
        duration=args.duration,
        sanitize=args.sanitize,
        trace=args.trace is not None,
    )


def _trace_path(arg: str, strategy: str) -> Path:
    """Resolve the per-strategy JSONL path for ``--trace[=PATH]``."""
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", strategy)
    if not arg:
        return Path(f"trace-{slug}.jsonl")
    if "{strategy}" in arg:
        return Path(arg.replace("{strategy}", slug))
    path = Path(arg)
    return path.with_name(f"{path.stem}-{slug}{path.suffix or '.jsonl'}")


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    print(f"Configuration: {config.describe()} (seed={args.seed})")
    if args.trace is None:
        results = run_comparison(
            config, seed=args.seed, strategies=args.strategies
        )
    else:
        # Tracing: keep each environment around so its record can be
        # exported after the run (run_comparison only returns summaries).
        results = {}
        for name in args.strategies:
            env = build_environment(config, name, args.seed)
            results[name] = env.execute()
            path = _trace_path(args.trace, name)
            export_jsonl(env.record, path)
            print(f"[trace written to {path}]")
    print(render_comparison(results))
    if args.perf:
        print()
        print("Performance counters (see repro.perf):")
        print(render_perf(results))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from(args)
    parse, overrides = AXES[args.axis]
    configs = {}
    for raw in args.values:
        value = parse(raw)
        configs[value] = base.with_updates(**overrides(value))
    result = run_sweep(
        f"sweep over {args.axis}",
        args.axis,
        configs,
        seeds=tuple(range(args.repetitions)),
        strategies=args.strategies,
    )
    for metric in args.metrics:
        print(render_sweep(result, metric))
        print()
    if args.csv:
        sweep_to_csv(result, args.csv)
        print(f"[csv written to {args.csv}]")
    return 0


def run_artifact(name: str, args: argparse.Namespace) -> int:
    artifact = ARTIFACTS[name]
    result = artifact.run(args.duration, args.repetitions)
    print("\n\n".join(artifact.tables(result).values()))
    outcomes = artifact.verify(result)
    if outcomes:
        print(render_outcomes(outcomes))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-sim", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="run all strategies on one configuration"
    )
    _add_config_arguments(compare)
    compare.add_argument(
        "--perf",
        action="store_true",
        help="also print per-strategy performance counters "
        "(control-plane solve time, table reuse, sweeps, plus "
        "any sanity.*/trace.*/probes.* counters from attached observers)",
    )
    compare.set_defaults(handler=cmd_compare)

    sweep_cmd = subparsers.add_parser("sweep", help="sweep one config axis")
    sweep_cmd.add_argument("axis", choices=sorted(AXES))
    sweep_cmd.add_argument("--values", nargs="+", required=True)
    sweep_cmd.add_argument("--repetitions", type=int, default=1)
    sweep_cmd.add_argument(
        "--metrics",
        nargs="*",
        default=["delivery_ratio", "qos_delivery_ratio", "packets_per_subscriber"],
    )
    sweep_cmd.add_argument("--csv", default=None)
    _add_config_arguments(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    figures = [name for name in ARTIFACTS if name.startswith("fig")]
    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=[int(n[3:]) for n in figures])
    figure.set_defaults(handler=lambda args: run_artifact(f"fig{args.number}", args))
    study = subparsers.add_parser("study", help="run an ablation or extension study")
    study.add_argument("name", choices=[n for n in ARTIFACTS if n not in figures])
    study.set_defaults(handler=lambda args: run_artifact(args.name, args))
    for command in (figure, study):
        # Scaled per entry, as scripts/run_experiments.py scales them.
        command.add_argument("--duration", type=float, default=30.0)
        command.add_argument("--repetitions", type=int, default=1)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
