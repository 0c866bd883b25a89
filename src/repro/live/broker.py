"""The standalone multi-process broker entrypoint.

One OS process hosts one *partition* of the overlay — a subset of broker
nodes sharing a :class:`~repro.live.transport.LiveTransport` — and is
driven by the cluster coordinator (:mod:`repro.live.cluster`) over a
newline-delimited-JSON TCP control channel::

    python -m repro.live.broker --node-id 0 --node-id 3 \\
        --peers addr.json --scenario scenario.json --control 127.0.0.1:9000

The protocol stack inside a partition is wired by the shared composition
root (:func:`repro.stack.wire_stack`, observed through one
:class:`repro.stack.observed` session) — the stack of every other
world-builder — and :class:`PartitionRuntime` is the only place the live
stack is assembled: the single-process live runtime
(:mod:`repro.live.runtime`) is an in-process driver over one partition
hosting every node. Only the *deployment* differs. That is the claim the
three-way conformance suite pins: sim, single-process live, and
multi-process live must produce identical delivered-pair sets with zero
changes to the protocol modules.

Multi-process glue, all of it outside the protocol code:

* **Transfer-id striping** — each copy's ``transfer_id`` is unique
  within a run and striped across a fleet: every partition's run
  context counts transfer ids from the start of its own disjoint range
  (its stripe group shifted past :data:`TRANSFER_STRIPE_BITS`, passed to
  :func:`~repro.stack.wire_stack` as ``first_transfer_id``), so the
  partitions' allocators never collide — not even two partitions
  sharing one process.
* **Epoch-pinned clocks** — the coordinator's ``start`` command carries a
  ``time.time()`` epoch; every partition pins its
  :class:`~repro.live.clock.WallClock` to it, so frame timestamps,
  delivery delays and trace events are comparable fleet-wide.
* **Pre-registered expectations** — every partition registers *all*
  expected ``(message, subscriber)`` pairs at start (with the scheduled
  publish times), so deliveries and give-ups are recorded in whichever
  process they happen; the coordinator merges by union.
* **Partitioned record** — a partition hosting only part of the
  overlay runs its :class:`repro.record.RunRecord` in ``partitioned``
  mode (remote transmissions legitimately arrive without a local send
  record); timer settlement is checked locally, frame conservation is
  re-proved over the merged fleet ledgers at the coordinator.

The control channel understands ``start``, ``status``, ``report`` and
``shutdown``; see :mod:`repro.live.cluster` for the coordinator side.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import sanity as _sanity
from repro.core.forwarding import DcrdStrategy
from repro.live.clock import WallClock
from repro.live.config import LiveConfig
from repro.live.faults import link_filter
from repro.live.scenarios import AcceptLedger, Scenario, reduce_run, scenario_from_dict
from repro.live.transport import LiveTransport
from repro.ordering.plan import plan_from_scenario
from repro.record import RunRecord
from repro.routing.base import RuntimeContext
from repro.sim.random import RandomStreams
from repro.stack import observed, wire_stack
from repro.util.errors import ConfigurationError, SimulationError

#: Transfer ids are striped per partition: the high bits carry the group
#: id (``min(local_nodes) + 1``), the low 40 bits the local sequence.
#: 2^40 copies per partition per run is far beyond any scenario.
TRANSFER_STRIPE_BITS = 40

#: How often :meth:`PartitionRuntime.settled` re-tests its exact predicate
#: (seconds): a settle ends at most this long after the last copy lands.
_SETTLE_CHECK_S = 0.001


def split_transfer_id(transfer_id: int) -> Tuple[int, int]:
    """Decompose a (possibly striped) transfer id into (group, local seq).

    Single-process ids (group 0) pass through unchanged; the multi-process
    golden pin uses this to normalize ids across deployments.
    """
    return divmod(transfer_id, 1 << TRANSFER_STRIPE_BITS)


class PartitionRuntime:
    """One partition of a live deployment: the hosted brokers + glue.

    Composes the full protocol stack over a (possibly partitioned)
    :class:`LiveTransport` and owns the partition-local observability
    (accept ledger, run record). The class is
    loop-agnostic and in-process testable: the cluster coordinator drives
    it inside :func:`broker_main`, :func:`repro.live.runtime.run_live_scenario`
    drives one instance hosting every node, and the test suite runs two
    instances on one loop to cover the partition seams under coverage.

    Lifecycle: :meth:`start` wires the stack, opens the observer session
    and — last — the sockets; :meth:`close` must run on every path,
    including a failed :meth:`start`.

    With a *stripe_group* (>= 1) the partition's transfer ids count from
    :attr:`first_transfer_id` ``= (stripe_group << TRANSFER_STRIPE_BITS)
    + 1``; without one, from 1. Message ids are not striped: only the
    publisher's partition allocates them, starting at 1.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        local_nodes: Sequence[int],
        config: Optional[LiveConfig] = None,
        sanitize: bool = True,
        trace: bool = False,
        stripe_group: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.local_nodes = frozenset(local_nodes)
        if not self.local_nodes:
            raise ConfigurationError("a partition must host at least one node")
        self.config = config if config is not None else LiveConfig()
        self.sanitize = sanitize
        self.trace = trace
        if stripe_group is None:
            self.first_transfer_id = 1
        elif stripe_group < 1:
            raise ConfigurationError(
                f"transfer stripe group must be >= 1, got {stripe_group}"
            )
        else:
            self.first_transfer_id = (stripe_group << TRANSFER_STRIPE_BITS) + 1
        self.clock: Optional[WallClock] = None
        self.transport: Optional[LiveTransport] = None
        self.strategy: Optional[DcrdStrategy] = None
        self.ctx: Optional[RuntimeContext] = None
        self.record: Optional[RunRecord] = None
        self.ledger = AcceptLedger()
        self.published = 0
        self.done_publishing = not self.hosts_publisher
        self._publish_task: Optional["asyncio.Task[None]"] = None
        self._session: Optional[observed] = None

    @property
    def hosts_publisher(self) -> bool:
        return self.scenario.publisher in self.local_nodes

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot the partition: stack, observers, then sockets."""
        self.clock = WallClock(asyncio.get_running_loop())
        topology = self.scenario.topology()
        rules = self.scenario.rules()
        # Hosting every broker is the single-process deployment: no peer
        # addresses needed, and no frame ever arrives from outside.
        partitioned = len(self.local_nodes) < topology.num_nodes
        streams = RandomStreams(self.seed)
        self.transport = LiveTransport(
            self.clock,
            topology,
            streams,
            self.config,
            local_nodes=self.local_nodes if partitioned else None,
        )
        if rules:
            self.transport.install_fault_filter(link_filter(rules))
        self.ctx, self.strategy, _ = wire_stack(
            self.clock,
            topology,
            self.transport,
            streams,
            self.scenario.workload(),
            self.scenario.params(),
            ordering=plan_from_scenario(self.scenario.ordering),
            nodes=self.local_nodes,
            first_transfer_id=self.first_transfer_id,
        )
        if self.sanitize or self.trace:
            self.record = RunRecord(self.sanitize, self.trace, partitioned=partitioned)
        self._session = observed(self.ctx, self.record, observers=[self.ledger])
        self._session.__enter__()
        await self.transport.start()

    def begin(
        self, epoch: float, publish_times: Sequence[float]
    ) -> Optional["asyncio.Task[None]"]:
        """Apply the coordinator's ``start``: pin the clock, register all
        expectations, and (in the publisher's partition) launch the
        scripted publish loop — returned, so an in-process driver can await
        the last publish; :meth:`close` cancels it if it is still running."""
        assert self.clock is not None and self.ctx is not None
        self.clock.pin_epoch(epoch)
        scenario = self.scenario
        spec = self.ctx.workload.topic(scenario.topic)
        deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
        for i, publish_time in enumerate(publish_times):
            self.ctx.metrics.expect(i + 1, scenario.topic, publish_time, deadlines)
        if self.hosts_publisher:
            self._publish_task = asyncio.ensure_future(
                self._publish_loop(spec, publish_times)
            )
        return self._publish_task

    async def _publish_loop(self, spec: Any, publish_times: Sequence[float]) -> None:
        assert self.clock is not None and self.strategy is not None
        assert self.ctx is not None
        for publish_time in publish_times:
            await self.clock.sleep_until(publish_time)
            self.strategy.publish(spec, next(self.ctx.message_ids))
            self.published += 1
        self.done_publishing = True

    async def settled(self) -> None:
        """Return as soon as this partition is quiescent.

        Quiescent means three counts are zero at once: ARQ copies awaiting
        an ACK, frames held back by an ordering pipeline (a stall timer
        will release them), and copies between their send and their
        receiver's dispatch (:attr:`LiveTransport.in_transit` — a duplicate
        or retransmitted copy can still be on its way after its transfer
        was ACKed). Every event that could start new work is the arrival
        of such a copy or the timer of such a count, so the test is exact
        and needs no stability window: an already quiescent partition
        returns without sleeping. Only a partition hosting every node can
        settle this way — a fleet's copies cross processes, and the
        coordinator sweeps the fleet instead.

        Raises :class:`~repro.util.errors.SimulationError` when the
        partition is not quiescent within ``settle_timeout``: a live run
        with copies still in flight is wedged, not slow.
        """
        assert self.clock is not None
        deadline = self.clock.now + self.config.settle_timeout
        while True:
            status = self.status()
            if status["in_flight"] == status["held"] == status["in_transit"] == 0:
                return
            if self.clock.now >= deadline:
                raise SimulationError(
                    f"live run failed to settle within {self.config.settle_timeout}s "
                    f"({status['in_flight']} ARQ copies still in flight, "
                    f"{status['held']} frames held back, "
                    f"{status['in_transit']} copies in transit)"
                )
            await asyncio.sleep(_SETTLE_CHECK_S)

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The coordinator's quiescence-poll payload.

        ``activity`` is a monotone sum of link sends and deliveries: the
        fleet is quiescent when everyone is done publishing, no ARQ copy
        is in flight anywhere, and the global activity sum is unchanged
        across consecutive sweeps (a pending retransmission always keeps
        its copy in flight, so the counters cannot be transiently flat).
        ``in_transit`` is :attr:`LiveTransport.in_transit`: exact for a
        partition hosting every node, meaningful only summed over a fleet.
        """
        assert self.ctx is not None and self.strategy is not None
        assert self.transport is not None
        stats = self.transport.stats
        activity = sum(stats._sent) + sum(stats._delivered)
        return {
            "nodes": sorted(self.local_nodes),
            "in_flight": self.strategy.arq.in_flight,
            # Frames parked in hold-back pipelines: still "in flight" for
            # quiescence purposes (a stall timer will release them).
            "held": self.ctx.ordering.held_count() if self.ctx.ordering else 0,
            "in_transit": self.transport.in_transit,
            "activity": activity,
            "done_publishing": self.done_publishing,
            "published": self.published,
            "codec_errors": self.transport.codec_errors,
        }

    def finish(self) -> None:
        """End of a settled run: flush hold-back buffers, then run the
        record's end-of-run checks (raises on a violation; idempotent)."""
        assert self._session is not None
        self._session.finish()

    def report(self) -> Dict[str, Any]:
        """Reduce the partition to its mergeable end-of-run facts.

        Finishes the run first (:meth:`finish`), so end-of-run releases
        land in the metrics and the partition-local checks have passed;
        the fleet-wide conservation check runs at the coordinator over
        the exported ledgers.
        """
        assert self.ctx is not None and self.strategy is not None
        assert self.transport is not None
        self.finish()
        result: Dict[str, Any] = {
            "nodes": sorted(self.local_nodes),
            "published": self.published,
            **reduce_run(
                self.ctx,
                self.strategy,
                self.ledger,
                self.record,
                self.local_nodes,
                self.transport.codec_errors,
            ),
        }
        if self.record is not None and self.record.sanitize:
            result["sanitizer"] = self.record.export_partition()
        return result

    async def close(self) -> None:
        """Tear down the publish task, observers, transport and timers."""
        if self._publish_task is not None:
            self._publish_task.cancel()
            try:
                await self._publish_task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
            self._publish_task = None
        if self._session is not None:
            self._session.close()
            self._session = None
        if self.transport is not None:
            # Also after a start() that failed half-way: whatever servers
            # and connections it opened are closed here.
            await self.transport.close()
        if self.clock is not None:
            self.clock.close()


# ---------------------------------------------------------------------------
# Control-channel session (the broker side of the cluster protocol)
# ---------------------------------------------------------------------------
async def _control_session(
    runtime: PartitionRuntime,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    def send(message: Dict[str, Any]) -> None:
        writer.write(json.dumps(message).encode("utf-8") + b"\n")

    send({"type": "hello", "nodes": sorted(runtime.local_nodes)})
    await writer.drain()
    while True:
        line = await reader.readline()
        if not line:
            return  # coordinator vanished: exit, the teardown is in main
        command = json.loads(line)
        kind = command.get("type")
        if kind == "start":
            runtime.begin(command["epoch"], command["publish_times"])
            send({"type": "ok"})
        elif kind == "status":
            send({"type": "status", **runtime.status()})
        elif kind == "report":
            try:
                report = runtime.report()
            except _sanity.InvariantViolation as violation:
                send({"type": "error", "error": violation.report()})
            else:
                send({"type": "report", **report})
        elif kind == "shutdown":
            send({"type": "bye"})
            await writer.drain()
            return
        else:
            send({"type": "error", "error": f"unknown command {kind!r}"})
        await writer.drain()


async def broker_main(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(
        json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    )
    peers_raw = json.loads(Path(args.peers).read_text(encoding="utf-8"))
    peers = {int(node): (host, int(port)) for node, (host, port) in peers_raw.items()}
    config = LiveConfig(
        peers=peers,
        connect_timeout=args.connect_timeout,
        settle_timeout=args.settle_timeout,
    )
    nodes = sorted(set(args.node_id))
    runtime = PartitionRuntime(
        scenario,
        args.seed,
        nodes,
        config,
        sanitize=not args.no_sanitize,
        trace=args.trace,
        stripe_group=min(nodes) + 1,
    )
    control_host, _, control_port = args.control.rpartition(":")
    try:
        await runtime.start()
        reader, writer = await asyncio.open_connection(
            control_host, int(control_port)
        )
        try:
            await _control_session(runtime, reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # pragma: no cover - teardown best effort
                pass
    finally:
        await runtime.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.broker",
        description="One partition of a multi-process live broker overlay.",
    )
    parser.add_argument(
        "--node-id",
        type=int,
        action="append",
        required=True,
        help="broker node hosted by this process (repeatable)",
    )
    parser.add_argument(
        "--peers",
        required=True,
        help="JSON file mapping node id -> [host, port] for every broker",
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help="JSON file with the serialized scenario (scenario_to_dict form)",
    )
    parser.add_argument(
        "--control",
        required=True,
        help="host:port of the cluster coordinator's control server",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-sanitize", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--connect-timeout", type=float, default=10.0)
    parser.add_argument("--settle-timeout", type=float, default=10.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(broker_main(args))
    except (SimulationError, ConfigurationError) as exc:
        print(f"broker failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
