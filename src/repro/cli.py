"""Command-line interface: ``repro-sim``.

Three subcommands:

* ``compare`` — run every strategy against one configuration and print the
  comparison table (the quickstart, as a CLI);
* ``sweep`` — sweep one axis (``pf``, ``degree``, ``size``, ``deadline``,
  ``loss``) and print/export the resulting tables;
* ``figure`` — regenerate one of the paper's figures (2–8) at a chosen
  scale;
* ``study`` — run one of the extension studies (congestion, churn, fec,
  nodes, ablation-timeout, ablation-monitoring).

Examples
--------
::

    repro-sim compare --topology regular --degree 5 --pf 0.06
    repro-sim sweep pf --values 0 0.02 0.04 --duration 30 --csv out.csv
    repro-sim figure 6 --duration 60 --repetitions 3
    repro-sim study congestion --duration 15
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments import figures as figure_drivers
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import sweep_to_csv
from repro.experiments.figures import PANEL_METRICS
from repro.experiments.report import (
    render_cdf,
    render_comparison,
    render_panels,
    render_perf,
    render_sweep,
)
from repro.experiments.runner import (
    DEFAULT_STRATEGIES,
    build_environment,
    run_comparison,
)
from repro.experiments.sweeps import sweep as run_sweep
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


def cmd_figure(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.repetitions))
    number = args.number
    if number == 7:
        curves = figure_drivers.figure7(args.duration, seeds)
        print(render_cdf(curves))
        return 0
    if number == 8:
        results = figure_drivers.figure8(args.duration, seeds)
        for m in sorted(results):
            print(render_sweep(results[m], "qos_delivery_ratio"))
            print()
        return 0
    driver = {
        2: figure_drivers.figure2,
        3: figure_drivers.figure3,
        4: figure_drivers.figure4,
        5: figure_drivers.figure5,
        6: figure_drivers.figure6,
    }[number]
    result = driver(args.duration, seeds)
    metrics = ("qos_delivery_ratio",) if number == 6 else PANEL_METRICS
    print(render_panels(result, metrics))
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from repro.extensions.ablations import (
        ack_timeout_ablation,
        monitoring_mode_ablation,
    )
    from repro.extensions.churn import churn_study
    from repro.extensions.congestion import congestion_study
    from repro.extensions.fec import fec_study
    from repro.extensions.heterogeneous import heterogeneity_study
    from repro.extensions.node_failures import node_failure_study

    seeds = tuple(range(args.repetitions))
    studies = {
        "heterogeneous": (
            heterogeneity_study,
            ("qos_delivery_ratio", "packets_per_subscriber"),
        ),
        "congestion": (
            congestion_study,
            ("qos_delivery_ratio", "packets_per_subscriber"),
        ),
        "churn": (churn_study, ("delivery_ratio", "qos_delivery_ratio")),
        "fec": (
            fec_study,
            ("delivery_ratio", "qos_delivery_ratio", "traffic_per_subscriber"),
        ),
        "nodes": (node_failure_study, ("delivery_ratio", "qos_delivery_ratio")),
        "ablation-timeout": (ack_timeout_ablation, ("qos_delivery_ratio",)),
        "ablation-monitoring": (monitoring_mode_ablation, ("qos_delivery_ratio",)),
    }
    driver, metrics = studies[args.name]
    result = driver(duration=args.duration, seeds=seeds)
    print(render_panels(result, metrics))
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

    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=range(2, 9))
    figure.add_argument("--duration", type=float, default=30.0)
    figure.add_argument("--repetitions", type=int, default=1)
    figure.set_defaults(handler=cmd_figure)

    study = subparsers.add_parser("study", help="run an extension study")
    study.add_argument(
        "name",
        choices=(
            "congestion",
            "churn",
            "fec",
            "heterogeneous",
            "nodes",
            "ablation-timeout",
            "ablation-monitoring",
        ),
    )
    study.add_argument("--duration", type=float, default=15.0)
    study.add_argument("--repetitions", type=int, default=1)
    study.set_defaults(handler=cmd_study)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
