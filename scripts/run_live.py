#!/usr/bin/env python3
"""Run one scripted scenario over real asyncio TCP sockets (live mode).

The live twin of a single simulated run: brokers bind loopback TCP
servers, DCRD forwards over the wire, and the scripted fault rules of the
scenario (dead links, dead ACK directions) drop frames at the transport's
fault filter, the same predicate the simulated network takes. With ``--differential`` the same scenario also runs on
the discrete-event kernel and the two delivered-pair sets are compared —
the one-shot command-line version of
``tests/integration/test_live_conformance.py``.

With ``--processes N`` the scenario instead runs on the multi-process
substrate: N broker processes are spawned (one ``repro.live.broker``
partition each), coordinated over a control channel, and harvested into
the same comparable shape — the CLI twin of
``tests/integration/test_multiproc_conformance.py``.

Examples::

    PYTHONPATH=src python scripts/run_live.py failover_bounce
    PYTHONPATH=src python scripts/run_live.py ack_loss --seed 7 --differential
    PYTHONPATH=src python scripts/run_live.py clean --no-sanitize --json
    PYTHONPATH=src python scripts/run_live.py link_loss --processes 3 --differential
    PYTHONPATH=src python scripts/run_live.py clean --dump-wire 2>wire.txt
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import probes
from repro.live.cluster import run_cluster_scenario
from repro.live.codec import FrameCodec
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import SCENARIO_KINDS, make_scenario, run_sim_scenario


def _render(result: dict) -> dict:
    """JSON-serialisable view of one run result."""
    view = dict(result)
    view["delivered"] = sorted(list(pair) for pair in result["delivered"])
    view["gave_up"] = sorted(list(pair) for pair in result["gave_up"])
    view["deliveries"] = [list(pair) for pair in result["deliveries"]]
    return view


class WireDump(probes.ProbeObserver):
    """Prints every DATA frame handed to a link as its described envelope."""

    def __init__(self) -> None:
        self.codec = FrameCodec()

    def on_transmit(self, t, src, dst, frame, survived, cause, prop, queue) -> None:
        envelope = self.codec.describe(self.codec.encode_payload(src, frame))
        fate = "" if survived else f" lost:{cause}"
        print(f"{t:.6f} {src}->{dst}{fate} {json.dumps(envelope)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=SCENARIO_KINDS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--differential",
        action="store_true",
        help="also run the scenario on the sim kernel and compare",
    )
    parser.add_argument(
        "--no-sanitize",
        action="store_true",
        help="run without the invariant sanitizer attached",
    )
    parser.add_argument("--json", action="store_true", help="emit raw JSON")
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="run N broker OS processes (multi-process live mode) "
        "instead of the single-process runtime",
    )
    parser.add_argument(
        "--dump-wire",
        action="store_true",
        help="print each DATA frame's wire envelope, decoded, to stderr "
        "(single-process runs: the frames of a fleet are in other processes)",
    )
    args = parser.parse_args(argv)
    if args.dump_wire and args.processes is not None:
        parser.error("--dump-wire needs the single-process runtime")
    sanitize = not args.no_sanitize
    if args.processes is not None:
        live = run_cluster_scenario(
            make_scenario(args.scenario),
            args.seed,
            sanitize,
            processes=args.processes,
        )
        mode = f"multiproc[{args.processes}]"
    else:
        dump = WireDump()
        if args.dump_wire:
            probes.attach(dump)
        try:
            live = run_live_scenario(make_scenario(args.scenario), args.seed, sanitize)
        finally:
            probes.detach(dump)
        mode = "live"
    if args.json:
        print(json.dumps({"live": _render(live)}, indent=2, sort_keys=True))
    else:
        print(f"{mode} {args.scenario} (seed {args.seed}):")
        print(
            f"  delivered {len(live['delivered'])}/{live['expected']} pairs, "
            f"{live['retransmissions']} retransmissions, "
            f"{live['duplicates']} duplicate arrivals"
        )
        if sanitize:
            print(
                f"  timers {live['timers_started']:.0f} started / "
                f"{live['timers_settled']:.0f} settled, "
                f"{live['violations']:.0f} violations"
            )
    if not args.differential:
        return 0
    sim = run_sim_scenario(make_scenario(args.scenario), args.seed, sanitize)
    agree = (
        sim["delivered"] == live["delivered"]
        and sim["gave_up"] == live["gave_up"]
        and sim["deliveries"] == live["deliveries"]
    )
    if args.json:
        print(json.dumps({"sim": _render(sim), "agree": agree}, indent=2, sort_keys=True))
    else:
        verdict = "AGREE" if agree else "DISAGREE"
        print(f"  sim comparison: {verdict} ({len(sim['delivered'])} pairs)")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
