"""The socket :class:`~repro.substrate.Transport`: brokers over real TCP.

:class:`LiveTransport` *is* an :class:`~repro.overlay.links.OverlayNetwork`
whose last step is a socket write. Everything up to that step is the
simulated network's own code: the handler registry, the send counters,
the fault filter, the link hazards (``Pl``, ``Pf`` epochs, node crashes),
the ``on_transmit`` probe and the delivery at the receiver
(:meth:`~repro.overlay.links.OverlayNetwork._deliver`). Where the
simulator pushes a compiled delivery closure onto its calendar, this
transport pushes a write onto the wall clock's calendar: after the link's
topology delay the frame is encoded and written to its direction's
socket, and the receiving end hands it to the inherited delivery. So
:class:`BrokerRuntime`, :class:`ArqSender` and the DCRD forwarding logic
run over it without a single branch on the substrate, and live runs face
every hazard the simulated network models through the one link model.

The seam is chosen at construction: the per-direction delivery closures
(:meth:`_deliveries`) write instead of calling the handler, and ``_fire``
counts the copy as unwritten before it arms the write. The one contract
member it overrides is :meth:`ack_round_trip`: a socket round trip is
not known in advance, so it answers ``None`` and every ARQ timer stays
eager. ACKs and DATA copies alike reach the receiving broker's
``on_frame``.

Topology and wiring
-------------------
One asyncio TCP server per broker node, one persistent connection per
*directed* overlay edge (``u`` dials and writes the ``u -> v`` connection;
``v``'s server reads it). Frames are length-prefixed binary messages
(:mod:`repro.live.codec`); each envelope carries its sender, so
connections need no handshake. Both ends of a connection are an
:class:`_EdgeEnd` protocol: the reading end's ``data_received`` appends
to one buffer and dispatches every complete frame in place — no reader
task, no per-frame await.

Partitioned (multi-process) deployment
--------------------------------------
With ``local_nodes`` set, the transport manages only that subset of the
overlay: it binds servers for the local nodes at their configured
``LiveConfig.peers`` addresses and dials one writer per *outgoing*
directed edge (``u -> v`` with ``u`` local), retrying refused connections
until ``connect_timeout`` so a fleet of broker processes can boot in any
order. Incoming edges arrive on the local servers exactly as in the
single-process case — the per-node server / per-directed-edge wiring
never assumed co-location, which is what makes this mode a pure
deployment change.

In transit
----------
:attr:`LiveTransport.in_transit` counts the copies between their send
and their receiver's dispatch — one of the three counts whose zero is a
settled run (:meth:`repro.live.broker.PartitionRuntime.settled`).
"""

from __future__ import annotations

import asyncio
import functools
from collections import defaultdict
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.live.clock import WallClock
from repro.live.codec import CodecError, FrameCodec
from repro.live.config import LiveConfig
from repro.overlay.links import FrameKind, OverlayNetwork
from repro.overlay.topology import Topology
from repro.pubsub.messages import AckFrame
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError


class _EdgeEnd(asyncio.Protocol):
    """One end of the ``src -> dst`` connection.

    The accepting end (made by *dst*'s server) frames and dispatches what
    arrives, and learns *src* from the frames it dispatches; the dialling
    end knows both from the start and only writes. Either end resolves
    :attr:`closed` when its socket is gone, which is what
    :meth:`LiveTransport.close` awaits, and forgets the direction's copies
    on the wire: nothing written to a closed connection is dispatched.
    """

    def __init__(
        self, owner: "LiveTransport", dst: int, src: Optional[int] = None
    ) -> None:
        self.owner = owner
        self.dst = dst
        self.src = src
        self.transport: asyncio.Transport  # set by connection_made
        self.closed: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self._buffer = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.owner._ends.append(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.src is not None:
            self.owner._on_wire.pop((self.src, self.dst), None)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        owner = self.owner
        codec = owner.codec
        buffer = self._buffer + data if self._buffer else data
        start, size = 0, len(buffer)
        while size - start >= 4:
            try:
                stop = start + 4 + codec.split_prefix(buffer[start : start + 4])
            except CodecError:
                # A stream with a bad length cannot be resynchronised:
                # give up this connection, keep every other edge running.
                owner.codec_errors += 1
                self.transport.close()
                return
            if stop > size:
                break
            try:
                sender, frame = codec.decode_payload(buffer[start + 4 : stop])
            except CodecError:
                owner.codec_errors += 1
            else:
                self.src = sender
                owner._dispatch(sender, self.dst, frame)
            start = stop
        self._buffer = buffer[start:]


def _kind_of(frame: Any) -> FrameKind:
    if frame.__class__ is AckFrame or isinstance(frame, AckFrame):
        return FrameKind.ACK
    return FrameKind.DATA


class LiveTransport(OverlayNetwork):
    """The simulated network's link model over per-peer asyncio TCP connections."""

    def __init__(
        self,
        clock: WallClock,
        topology: Topology,
        streams: RandomStreams,
        config: Optional[LiveConfig] = None,
        local_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(clock, topology, streams)
        self.config = config if config is not None else LiveConfig()
        #: Nodes this transport instance hosts (``None`` = all of them,
        #: the single-process deployment).
        self.local_nodes: Optional[FrozenSet[int]] = (
            None if local_nodes is None else frozenset(local_nodes)
        )
        if self.local_nodes is not None:
            for node in self.local_nodes:
                if node not in topology.nodes:
                    raise SimulationError(f"local node {node} is not in the topology")
        self.codec = FrameCodec(self.config.max_frame_bytes)
        # Every copy that survives its hazards is armed as a write.
        self._fire = self._fire_write
        # Directed-edge wiring, built by start(): the socket u writes the
        # u -> v frames to.
        self._writers: Dict[Tuple[int, int], asyncio.Transport] = {}
        self._servers: List[asyncio.AbstractServer] = []
        # Both ends of every connection this transport dialled or accepted
        # (closed with the run: Server.close() only stops listening).
        self._ends: List[_EdgeEnd] = []
        self._ports: Dict[int, int] = {}
        # The copies between their send and their receiver's dispatch, in two
        # parts: those not yet through _write, and those written to a
        # direction's socket. A closed connection drops its direction's
        # second part (see _EdgeEnd); the first part drains through _write.
        self._unwritten = 0
        self._on_wire: Dict[Tuple[int, int], int] = defaultdict(int)
        self.started = False
        #: Frames whose stream raised a codec error (observability only).
        self.codec_errors = 0

    @property
    def in_transit(self) -> int:
        """Copies handed to a link and not yet dispatched at their receiver.

        Counted per frame the link hazards did not take, released by the
        receiver's dispatch — also when no handler takes the frame — or
        dropped with the copy when its connection is closing or closed:
        a write to it is skipped, and what was written to it is forgotten
        when it closes. Exact when this transport hosts every node. In a
        partition the sender counts a copy to a remote node and the
        receiver's partition releases it, so only the sum over the fleet
        means "in transit".
        """
        return self._unwritten + sum(self._on_wire.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the hosted brokers' servers, then dial one writer per
        outgoing direction.

        In the single-process deployment (``local_nodes is None``) that
        means every node's server and both directions of every edge; in a
        partition it means the local nodes' servers and the directions
        whose sender is local — the peer process dials the reverse
        direction against this partition's servers.
        """
        if self.started:
            raise SimulationError("transport already started")
        host = self.config.host
        local = self.local_nodes
        bind_nodes = self.topology.nodes if local is None else sorted(local)
        loop = asyncio.get_running_loop()
        for node in bind_nodes:
            address = self.config.address_of(node)
            if address is None and local is not None:
                raise SimulationError(
                    f"partitioned transport needs an explicit peer address "
                    f"for local node {node}"
                )
            bind_host, bind_port = address if address is not None else (host, 0)
            server = await loop.create_server(
                functools.partial(_EdgeEnd, self, node), bind_host, bind_port
            )
            self._servers.append(server)
            self._ports[node] = server.sockets[0].getsockname()[1]
        for u, v in self.topology.edges():
            for src, dst in ((u, v), (v, u)):
                if local is not None and src not in local:
                    continue
                address = self.config.address_of(dst)
                if address is None:
                    if local is not None:
                        raise SimulationError(
                            f"partitioned transport has no peer address for "
                            f"node {dst} (needed by the {src} -> {dst} edge)"
                        )
                    address = (host, self._ports[dst])
                self._writers[(src, dst)] = await self._dial(src, dst, *address)
        self.started = True

    async def _dial(self, src: int, dst: int, host: str, port: int) -> asyncio.Transport:
        """Open the ``src -> dst`` connection, retrying refusals until the timeout.

        A fleet of broker processes boots in arbitrary order, so the peer
        a partition dials may not have bound its server yet; connection
        refusals are retried on a short backoff until ``connect_timeout``
        is exhausted.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.connect_timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise SimulationError(
                    f"could not connect to peer {host}:{port} within "
                    f"{self.config.connect_timeout}s"
                )
            try:
                writer, _ = await asyncio.wait_for(
                    loop.create_connection(
                        functools.partial(_EdgeEnd, self, dst, src), host, port
                    ),
                    remaining,
                )
                return writer
            except (ConnectionRefusedError, OSError, asyncio.TimeoutError):
                if deadline - loop.time() <= 0.05:
                    raise SimulationError(
                        f"could not connect to peer {host}:{port} within "
                        f"{self.config.connect_timeout}s"
                    )
                await asyncio.sleep(0.05)

    async def close(self) -> None:
        """Tear down both ends of every connection, then the servers."""
        for server in self._servers:
            server.close()  # stop accepting before the ends are walked
        for end in self._ends:
            end.transport.close()
        for end in self._ends:
            await end.closed
        for server in self._servers:
            await server.wait_closed()
        self._writers.clear()
        self._ends.clear()
        self._servers.clear()
        self.started = False

    def bound_port(self, node: int) -> int:
        """The TCP port *node*'s server actually bound (after start)."""
        return self._ports[node]

    def ack_round_trip(self, src: int, dst: int) -> None:
        """Never known in advance on sockets: every ARQ timer stays eager,
        so no ACK is ever settled at send (:class:`WallClock` has no
        ``settle``)."""
        return None

    # ------------------------------------------------------------------
    # The last step: a socket write instead of an in-process delivery
    # ------------------------------------------------------------------
    def _deliveries(
        self, src: int, dst: int, handler: Optional[Callable[[int, Any], None]]
    ) -> Tuple[Callable[[Any], None], Callable[[Any], None]]:
        """Both kinds of the ``src -> dst`` direction end in its socket:
        the receiver's sink runs where the frame is read."""
        write = functools.partial(self._write, src, dst)
        return write, write

    def _fire_write(self, delay: float, write: Callable[[Any], None], frame: Any) -> None:
        self._unwritten += 1
        self.sim.schedule_fire(delay, write, frame)

    def _write(self, src: int, dst: int, frame: Any) -> None:
        self._unwritten -= 1
        direction = (src, dst)
        writer = self._writers.get(direction)
        if writer is None or writer.is_closing():
            return  # the connection is gone, and the copy with it
        writer.write(self.codec.encode(src, frame))
        self._on_wire[direction] += 1

    def _dispatch(self, src: int, dst: int, frame: Any) -> None:
        """Hand one frame read off the ``src -> dst`` socket to its receiver."""
        self._on_wire[(src, dst)] -= 1
        self._deliver(src, dst, frame, _kind_of(frame))
