"""The multi-process cluster coordinator.

:class:`LiveCluster` spawns one ``python -m repro.live.broker`` process
per partition, distributes the serialized scenario and peer-address map,
synchronizes the fleet on a shared epoch, polls it to quiescence, and
merges the per-partition reports back into the exact harvest shape the
single-substrate runners produce — which is what lets the three-way
conformance suite compare sim, single-process live, and multi-process
live runs with one assertion helper.

Design points:

* **Control channel** — the coordinator binds one TCP control server;
  each broker process dials in and identifies itself with a ``hello``
  naming its hosted nodes. Commands (``start``/``status``/``report``/
  ``shutdown``) and replies are newline-delimited JSON. The coordinator
  side is plain blocking sockets with timeouts — it runs no event loop.
* **Quiescence** — the fleet is settled when every partition is done
  publishing, the fleet-wide ARQ in-flight sum is zero, and the global
  (monotone) link-activity sum is unchanged across two consecutive
  sweeps. A copy awaiting retransmission is still in flight, so the
  counters cannot look flat mid-recovery.
* **Crash/straggler detection** — every poll sweep checks the child
  processes (``poll()``) and the control sockets; a dead or unresponsive
  partition raises :class:`ClusterError` naming its node ids instead of
  hanging, and the whole wait is bounded by the publish window plus the
  settle timeout.
* **Merged verification** — the coordinator re-proves fleet-wide frame
  conservation and total-order agreement from the partitions' exported
  record ledgers (:func:`repro.record.check_merged`); timer settlement
  was already checked inside each process.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import record as _record
from repro.live.scenarios import Scenario, scenario_to_dict
from repro.util.errors import ConfigurationError, ReproError
from repro.util.validation import require, require_in_range, require_type


class ClusterError(ReproError):
    """A broker process crashed, stalled, or misbehaved on the control channel."""


#: Seconds between the shared start epoch and the first publish — covers
#: the control round-trips so every partition pins its clock before any
#: frame is on the wire.
START_DELAY = 0.5

#: Poll interval of the quiescence sweep.
POLL_INTERVAL = 0.05

#: Consecutive flat activity sweeps required to declare quiescence.
STABLE_SWEEPS = 2


@dataclass(frozen=True)
class ClusterConfig:
    """Validated deployment plan of one multi-process cluster.

    Attributes
    ----------
    groups:
        The partition of the overlay's nodes into processes — one inner
        tuple per broker process. Every node appears exactly once.
    addresses:
        ``node -> (host, port)`` listen address of every broker's data
        server. Must cover every grouped node (a grouped node without an
        address is unreachable by its peers) and be pairwise distinct.
    control:
        ``(host, port)`` of the coordinator's control server; must not
        collide with any broker address.
    """

    groups: Tuple[Tuple[int, ...], ...]
    addresses: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    control: Tuple[str, int] = ("127.0.0.1", 0)

    def __post_init__(self) -> None:
        require(bool(self.groups), "cluster needs at least one process group")
        seen_nodes: Dict[int, int] = {}
        for index, group in enumerate(self.groups):
            require(
                bool(group), f"process group {index} hosts no nodes"
            )
            for node in group:
                require_type(node, int, "group node")
                if node in seen_nodes:
                    raise ConfigurationError(
                        f"node {node} appears in process groups "
                        f"{seen_nodes[node]} and {index}"
                    )
                seen_nodes[node] = index
        seen_addresses: Dict[Tuple[str, int], int] = {}
        for node, address in self.addresses.items():
            require_type(node, int, "addresses key")
            require(
                isinstance(address, tuple) and len(address) == 2,
                f"addresses[{node}] must be a (host, port) pair, got {address!r}",
            )
            host, port = address
            require_type(host, str, f"addresses[{node}] host")
            require(bool(host), f"addresses[{node}] host must be non-empty")
            require_type(port, int, f"addresses[{node}] port")
            require_in_range(port, 1, 65535, f"addresses[{node}] port")
            if address in seen_addresses:
                raise ConfigurationError(
                    f"address collision {host}:{port} "
                    f"(nodes {seen_addresses[address]} and {node})"
                )
            seen_addresses[address] = node
        missing = sorted(set(seen_nodes) - set(self.addresses))
        if missing:
            raise ConfigurationError(
                f"node(s) {missing} are grouped but have no listen address "
                f"(unreachable peers)"
            )
        control_host, control_port = self.control
        require_type(control_host, str, "control host")
        require(bool(control_host), "control host must be non-empty")
        require_type(control_port, int, "control port")
        if control_port != 0:
            require_in_range(control_port, 1, 65535, "control port")
            if (control_host, control_port) in seen_addresses:
                raise ConfigurationError(
                    f"control address {control_host}:{control_port} collides "
                    f"with broker node "
                    f"{seen_addresses[(control_host, control_port)]}"
                )

    @property
    def nodes(self) -> Tuple[int, ...]:
        """All grouped nodes, sorted."""
        return tuple(sorted(node for group in self.groups for node in group))

    def group_of(self, node: int) -> int:
        """Index of the process group hosting *node*."""
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        raise ConfigurationError(f"node {node} is not in any process group")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {
            "groups": [list(group) for group in self.groups],
            "addresses": {
                str(node): [host, port]
                for node, (host, port) in sorted(self.addresses.items())
            },
            "control": list(self.control),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterConfig":
        unknown = set(data) - {"groups", "addresses", "control"}
        require(not unknown, f"unknown cluster config field(s): {sorted(unknown)}")
        return cls(
            groups=tuple(tuple(group) for group in data["groups"]),
            addresses={
                int(node): (host, port)
                for node, (host, port) in data.get("addresses", {}).items()
            },
            control=tuple(data.get("control", ("127.0.0.1", 0))),
        )


def allocate_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve *count* distinct ephemeral ports on *host*.

    Binds (and then closes) one socket per port while holding all of
    them open, so the kernel hands out distinct ports. The tiny window
    between close and the brokers' re-bind is an accepted loopback race —
    the same one every ephemeral-port test fixture lives with.
    """
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def plan_cluster(
    nodes: Sequence[int], processes: int, host: str = "127.0.0.1"
) -> ClusterConfig:
    """Round-robin *nodes* over *processes* groups with fresh ports."""
    node_list = sorted(nodes)
    require(bool(node_list), "cannot plan a cluster with no nodes")
    require(processes >= 1, f"processes must be >= 1, got {processes}")
    processes = min(processes, len(node_list))
    groups: List[List[int]] = [[] for _ in range(processes)]
    for index, node in enumerate(node_list):
        groups[index % processes].append(node)
    ports = allocate_ports(len(node_list) + 1, host)
    addresses = {node: (host, ports[i]) for i, node in enumerate(node_list)}
    return ClusterConfig(
        groups=tuple(tuple(group) for group in groups),
        addresses=addresses,
        control=(host, ports[-1]),
    )


class _ControlPeer:
    """One accepted broker control connection (blocking, line-framed)."""

    def __init__(self, conn: socket.socket, nodes: Sequence[int]) -> None:
        self.conn = conn
        self.nodes = tuple(nodes)
        self.file = conn.makefile("rwb")

    def request(self, message: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        self.conn.settimeout(timeout)
        self.file.write(json.dumps(message).encode("utf-8") + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ClusterError(
                f"broker process hosting nodes {sorted(self.nodes)} closed "
                f"its control channel"
            )
        return json.loads(line)

    def close(self) -> None:
        try:
            self.file.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


class LiveCluster:
    """Spawn, drive, and harvest one multi-process live scenario run."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        config: Optional[ClusterConfig] = None,
        processes: Optional[int] = None,
        sanitize: bool = True,
        trace: bool = False,
        connect_timeout: float = 10.0,
        settle_timeout: float = 10.0,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        topology_nodes = list(scenario.topology().nodes)
        if config is None:
            config = plan_cluster(
                topology_nodes,
                processes if processes is not None else len(topology_nodes),
            )
        if list(config.nodes) != sorted(topology_nodes):
            raise ConfigurationError(
                f"cluster config hosts nodes {list(config.nodes)} but the "
                f"scenario topology has {sorted(topology_nodes)}"
            )
        self.config = config
        self.sanitize = sanitize
        self.trace = trace
        self.connect_timeout = connect_timeout
        self.settle_timeout = settle_timeout
        self.publish_times = [
            START_DELAY + i * scenario.publish_interval
            for i in range(scenario.publishes)
        ]
        self._server: Optional[socket.socket] = None
        self._procs: List[subprocess.Popen] = []
        self._peers: List[Optional[_ControlPeer]] = []
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._epoch: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the fleet, collect hellos, and broadcast the start epoch."""
        config = self.config
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        tmp = Path(self._tmpdir.name)
        scenario_path = tmp / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(self.scenario)), encoding="utf-8"
        )
        peers_path = tmp / "peers.json"
        peers_path.write_text(
            json.dumps(
                {
                    str(node): list(address)
                    for node, address in config.addresses.items()
                }
            ),
            encoding="utf-8",
        )
        control_host, control_port = config.control
        server = socket.create_server((control_host, control_port))
        if control_port == 0:
            control_port = server.getsockname()[1]
        server.settimeout(self.connect_timeout)
        self._server = server
        repo_src = Path(__file__).resolve().parents[2]
        for group in config.groups:
            argv = [sys.executable, "-m", "repro.live.broker"]
            for node in group:
                argv += ["--node-id", str(node)]
            argv += [
                "--peers", str(peers_path),
                "--scenario", str(scenario_path),
                "--control", f"{control_host}:{control_port}",
                "--seed", str(self.seed),
                "--connect-timeout", str(self.connect_timeout),
                "--settle-timeout", str(self.settle_timeout),
            ]
            if not self.sanitize:
                argv.append("--no-sanitize")
            if self.trace:
                argv.append("--trace")
            self._procs.append(
                subprocess.Popen(
                    argv,
                    env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                )
            )
        # Hellos arrive in arbitrary order; map them back to their groups.
        peers_by_group: Dict[int, _ControlPeer] = {}
        group_index = {group: i for i, group in enumerate(config.groups)}
        deadline = time.monotonic() + self.connect_timeout
        while len(peers_by_group) < len(config.groups):
            self._check_processes()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = [
                    sorted(group)
                    for i, group in enumerate(config.groups)
                    if i not in peers_by_group
                ]
                raise ClusterError(
                    f"broker process(es) hosting nodes {missing} never "
                    f"connected to the control server"
                )
            server.settimeout(min(remaining, POLL_INTERVAL * 4))
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            conn.settimeout(self.connect_timeout)
            peer_file = conn.makefile("rwb")
            hello = json.loads(peer_file.readline())
            peer_file.close()
            if hello.get("type") != "hello":
                conn.close()
                raise ClusterError(f"expected hello, got {hello!r}")
            nodes = tuple(hello["nodes"])
            if nodes not in group_index:
                conn.close()
                raise ClusterError(f"hello from unplanned node group {nodes}")
            peers_by_group[group_index[nodes]] = _ControlPeer(conn, nodes)
        self._peers = [peers_by_group[i] for i in range(len(config.groups))]
        self._epoch = time.time()
        start = {
            "type": "start",
            "epoch": self._epoch,
            "publish_times": self.publish_times,
        }
        for peer in self._peers:
            reply = peer.request(start, self.connect_timeout)
            if reply.get("type") != "ok":
                raise ClusterError(
                    f"nodes {sorted(peer.nodes)} rejected start: {reply!r}"
                )

    # ------------------------------------------------------------------
    def _check_processes(self) -> None:
        for proc, group in zip(self._procs, self.config.groups):
            code = proc.poll()
            if code is not None:
                stderr = b""
                if proc.stderr is not None:
                    stderr = proc.stderr.read() or b""
                raise ClusterError(
                    f"broker process hosting nodes {sorted(group)} exited "
                    f"with code {code}: {stderr.decode('utf-8', 'replace').strip()}"
                )

    def _statuses(self) -> List[Dict[str, Any]]:
        statuses = []
        for peer in self._peers:
            assert peer is not None
            try:
                reply = peer.request({"type": "status"}, self.connect_timeout)
            except (OSError, ClusterError) as exc:
                # Distinguish a crashed process (named node ids, exit
                # code) from a transient socket issue. A killed child's
                # connection resets a beat before the process is
                # reapable, so give poll() a short grace window.
                grace = time.monotonic() + 1.0
                while time.monotonic() < grace:
                    self._check_processes()
                    time.sleep(0.02)
                raise ClusterError(
                    f"nodes {sorted(peer.nodes)} stopped answering the "
                    f"control channel: {exc}"
                )
            if reply.get("type") != "status":
                raise ClusterError(
                    f"nodes {sorted(peer.nodes)} sent {reply!r} to a status poll"
                )
            statuses.append(reply)
        return statuses

    def wait_settled(self) -> None:
        """Block until the fleet is quiescent; raise on crash or straggle."""
        assert self._epoch is not None, "start() must run first"
        publish_window = self.publish_times[-1] if self.publish_times else 0.0
        deadline = self._epoch + publish_window + self.settle_timeout
        last_activity = -1
        stable = 0
        while time.time() < deadline:
            self._check_processes()
            statuses = self._statuses()
            done = all(status["done_publishing"] for status in statuses)
            in_flight = sum(
                status["in_flight"] + status.get("held", 0)
                for status in statuses
            )
            activity = sum(status["activity"] for status in statuses)
            if done and in_flight == 0 and activity == last_activity:
                stable += 1
                if stable >= STABLE_SWEEPS:
                    return
            else:
                stable = 0
            last_activity = activity
            time.sleep(POLL_INTERVAL)
        statuses = self._statuses()
        stragglers = sorted(
            node
            for status in statuses
            if status["in_flight"] > 0 or not status["done_publishing"]
            for node in status["nodes"]
        )
        raise ClusterError(
            f"cluster failed to settle within {self.settle_timeout}s past "
            f"the publish window (straggling nodes: {stragglers or 'none'}, "
            f"fleet still active)"
        )

    # ------------------------------------------------------------------
    def harvest(self) -> Dict[str, Any]:
        """Collect and merge the per-partition reports (harvest-shaped)."""
        reports = []
        for peer in self._peers:
            assert peer is not None
            reply = peer.request({"type": "report"}, self.connect_timeout)
            if reply.get("type") == "error":
                raise ClusterError(
                    f"nodes {sorted(peer.nodes)} failed their end-of-run "
                    f"checks:\n{reply.get('error')}"
                )
            if reply.get("type") != "report":
                raise ClusterError(
                    f"nodes {sorted(peer.nodes)} sent {reply!r} to a report "
                    f"request"
                )
            reports.append(reply)
        return merge_reports(self.scenario, reports, sanitize=self.sanitize)

    # ------------------------------------------------------------------
    def kill_node(self, node: int) -> None:
        """Kill the broker process hosting *node* (crash-tolerance tests)."""
        group = self.config.group_of(node)
        self._procs[group].kill()

    def shutdown(self) -> None:
        """Tear down the fleet: polite shutdowns, then hard kills."""
        for peer in self._peers:
            if peer is None:
                continue
            try:
                peer.request({"type": "shutdown"}, 2.0)
            except Exception:
                pass
            peer.close()
        self._peers = []
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs = []
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def merge_reports(
    scenario: Scenario,
    reports: Sequence[Dict[str, Any]],
    sanitize: bool = True,
) -> Dict[str, Any]:
    """Fuse per-partition reports into the single-substrate harvest shape.

    Pair sets merge by union (each pair settles in exactly one
    partition — its subscriber's), counters by sum. When sanitizing, the
    fleet-wide frame-conservation argument is re-proved here from the
    exported per-partition ledgers; a pair that vanished across the
    process boundary raises :class:`repro.sanity.InvariantViolation`
    exactly as it would in-process.
    """
    delivered = frozenset(
        (msg, sub) for report in reports for msg, sub in report["delivered"]
    )
    gave_up = (
        frozenset((msg, sub) for report in reports for msg, sub in report["gave_up"])
        - delivered
    )
    deliveries = tuple(
        sorted((msg, node) for report in reports for msg, node in report["deliveries"])
    )
    delays = tuple(
        sorted(
            (msg, sub, delay)
            for report in reports
            for msg, sub, delay in report["delays"]
        )
    )
    subscribers = [node for node, _ in scenario.subscribers]
    expected_pairs = {
        (msg, sub)
        for msg in range(1, scenario.publishes + 1)
        for sub in subscribers
    }
    result: Dict[str, Any] = {
        "scenario": scenario.name,
        "published": sum(report["published"] for report in reports),
        "expected": len(expected_pairs),
        "delivered": delivered,
        "gave_up": gave_up,
        "duplicates": sum(report["duplicates"] for report in reports),
        "max_accepts_per_transfer": max(
            report["max_accepts_per_transfer"] for report in reports
        ),
        "deliveries": deliveries,
        "delays": delays,
        "retransmissions": sum(report["retransmissions"] for report in reports),
        "abandoned": sum(report["abandoned"] for report in reports),
        "in_flight": sum(report["in_flight"] for report in reports),
        "codec_errors": sum(report["codec_errors"] for report in reports),
        "nodes": sorted(node for report in reports for node in report["nodes"]),
        # Per-node arrival order survives the merge untouched: each node's
        # deliveries all happen in its own partition, so concatenation
        # (then per-node filtering by the consumer) is order-preserving.
        "delivery_order": tuple(
            (msg, node)
            for report in reports
            for msg, node in report.get("delivery_order", ())
        ),
    }
    if sanitize:
        result["timers_started"] = sum(r["timers_started"] for r in reports)
        result["timers_settled"] = sum(r["timers_settled"] for r in reports)
        result["violations"] = sum(r["violations"] for r in reports)
        # Conservation, and total-order agreement between subscribers that
        # partitions only saw one side of, re-proved over the merge.
        result["conservation"] = _record.check_merged(
            [report["sanitizer"] for report in reports],
            expected_pairs,
            delivered,
            gave_up,
        )
    if any("trace" in report for report in reports):
        result["trace"] = sorted(
            (tuple(row) for report in reports for row in report.get("trace", ())),
        )
    return result


def run_cluster_scenario(
    scenario: Scenario,
    seed: int = 0,
    sanitize: bool = True,
    processes: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    trace: bool = False,
    settle_timeout: float = 10.0,
) -> Dict[str, Any]:
    """Execute *scenario* on the multi-process substrate, end to end."""
    cluster = LiveCluster(
        scenario,
        seed=seed,
        config=config,
        processes=processes,
        sanitize=sanitize,
        trace=trace,
        settle_timeout=settle_timeout,
    )
    try:
        cluster.start()
        cluster.wait_settled()
        return cluster.harvest()
    finally:
        cluster.shutdown()
