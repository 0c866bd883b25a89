"""Live mode: the broker stack over asyncio TCP sockets.

This package is the wall-clock/socket substrate behind the
:mod:`repro.substrate` contract — the same :class:`BrokerRuntime`,
:class:`ArqSender` and DCRD forwarding logic that runs on the
discrete-event kernel, deployed over real loopback TCP:

* :mod:`repro.live.clock` — :class:`WallClock`, the asyncio-loop Clock
  (the simulator's timer calendar, drained from one loop handle);
* :mod:`repro.live.codec` — length-prefixed binary frame codec;
* :mod:`repro.live.faults` — scripted :class:`DropRule` faults and
  :func:`link_filter`, the drop predicate both substrates take;
* :mod:`repro.live.transport` — :class:`LiveTransport`, the simulated
  network's link model whose last step is a write to a per-peer TCP
  connection;
* :mod:`repro.live.config` — :class:`LiveConfig`, validated runtime knobs;
* :mod:`repro.live.scenarios` — scripted differential scenarios shared
  with the sim substrate;
* :mod:`repro.live.broker` — :class:`PartitionRuntime`, the one place
  the live stack is assembled (via :func:`repro.stack.wire_stack`), and
  the standalone multi-process broker entrypoint
  (``python -m repro.live.broker``) around it;
* :mod:`repro.live.runtime` — :func:`run_live_scenario`, the
  single-process driver over one partition hosting every node;
* :mod:`repro.live.cluster` — the multi-process coordinator
  (:class:`LiveCluster`, :func:`run_cluster_scenario`).

Equivalence with the sim substrate is pinned by
``tests/integration/test_live_conformance.py`` (single process) and
``tests/integration/test_multiproc_conformance.py`` (process fleet); see
``docs/LIVE_MODE.md``.
"""

from repro.live.config import LiveConfig
from repro.live.faults import DropRule

__all__ = ["LiveConfig", "DropRule"]
