"""Per-layer attribution from outside the program.

The traced pass wraps the layers' public methods with timing shims that
record one span per call (name, start, end, parent) and attaches one
probe-bus observer for the counts that have no public method. Nothing
under ``src/`` knows about it: targets are resolved by name when
:meth:`Recorder.install` runs, and a target that no longer exists is
noted in :attr:`Recorder.absent` and skipped, so a later change that
folds or renames a method loses that layer's numbers, not the benchmark.

Wrappers must be installed before the world is built: the stack binds
methods into closures at construction time (``network.send_data``,
``broker.on_frame``, ``arq.handle_ack``), and only a class attribute that
is already wrapped at that moment ends up on the hot path.

A span's self time is its duration minus its children's. Work that a
layer does in private callbacks the kernel invokes directly (ARQ timeout
handlers, hold-back round timers, publisher ticks) has no span of its own
and lands in the self time of ``sim.run`` — see README.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ``(span name, module, attribute path)``. The part of the span name
#: before the first dot is the layer the span's self time is charged to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("links.transmit", "repro.overlay.links", "OverlayNetwork.transmit"),
    ("links.send_data", "repro.overlay.links", "OverlayNetwork.send_data"),
    ("links.send_ack", "repro.overlay.links", "OverlayNetwork.send_ack"),
    ("failures.failed_edges", "repro.overlay.failures", "FailureSchedule.failed_edges"),
    ("monitor.refresh", "repro.overlay.monitor", "LinkMonitor.refresh"),
    ("arq.send", "repro.routing.arq", "ArqSender.send"),
    ("arq.handle_ack", "repro.routing.arq", "ArqSender.handle_ack"),
    ("broker.on_frame", "repro.pubsub.broker", "BrokerRuntime.on_frame"),
    ("broker.deliver_frame", "repro.pubsub.broker", "BrokerRuntime.deliver_frame"),
    ("dcrd.setup", "repro.core.forwarding", "DcrdStrategy.setup"),
    ("dcrd.publish", "repro.core.forwarding", "DcrdStrategy.publish"),
    ("dcrd.handle_data", "repro.core.forwarding", "DcrdStrategy.handle_data"),
    ("dcrd.on_monitor_refresh", "repro.core.forwarding", "DcrdStrategy.on_monitor_refresh"),
    ("solver.init", "repro.core.computation", "ControlPlaneSolver.__init__"),
    ("solver.solve", "repro.core.computation", "ControlPlaneSolver.solve"),
    ("solver.table_affected", "repro.core.computation", "ControlPlaneSolver.table_affected"),
    ("ordering.offer", "repro.ordering.pipeline", "DeliveryPipeline.offer"),
    ("ordering.stamp", "repro.ordering.plan", "OrderingPlan.stamp"),
    ("ordering.note_delivery", "repro.ordering.plan", "OrderingPlan.note_delivery"),
    ("ordering.flush", "repro.ordering.plan", "OrderingPlan.flush"),
    ("metrics.expect", "repro.metrics.collector", "MetricsCollector.expect"),
    ("metrics.record_delivery", "repro.metrics.collector", "MetricsCollector.record_delivery"),
    ("metrics.record_give_up", "repro.metrics.collector", "MetricsCollector.record_give_up"),
    # summarize is a module function the runner imported by name, so the
    # binding the run actually calls lives in the runner's namespace.
    # (Runner first: importing it after the defining module was patched
    # would bind, and then re-wrap, the wrapper.)
    ("summarize.call", "repro.experiments.runner", "summarize"),
    ("summarize.call", "repro.metrics.summary", "summarize"),
    ("codec.encode_payload", "repro.live.codec", "FrameCodec.encode_payload"),
    ("codec.frame_message", "repro.live.codec", "FrameCodec.frame_message"),
    ("codec.decode_payload", "repro.live.codec", "FrameCodec.decode_payload"),
    ("codec.split_prefix", "repro.live.codec", "FrameCodec.split_prefix"),
    ("transport.transmit", "repro.live.transport", "LiveTransport.transmit"),
    ("transport.send_data", "repro.live.transport", "LiveTransport.send_data"),
    ("transport.send_ack", "repro.live.transport", "LiveTransport.send_ack"),
    ("clock.schedule", "repro.live.clock", "WallClock.schedule"),
    ("clock.schedule_fire", "repro.live.clock", "WallClock.schedule_fire"),
)

#: Span names whose wrapper also sums ``len(result)`` (encoded bytes).
SIZED_RESULTS = frozenset({"codec.encode_payload"})

#: Span names whose wrapper times how late the scheduled callback fired.
TIMER_TARGETS = frozenset({"clock.schedule", "clock.schedule_fire"})

#: Probe families the benchmark's observer counts. The ``timer_*``
#: families are left alone on purpose: an observer on any of them
#: switches ARQ timer elision off, and the traced pass must leave the
#: fast path on.
COUNTED_FAMILIES = (
    "fork",
    "enqueue",
    "dedup_discard",
    "ack_timeout",
    "failover",
    "bounce",
    "order_hold",
)


def resolve(module_name: str, path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw attribute)`` of a target, or ``None``."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


def _rewrap(raw: Any, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Any:
    """Apply *make* to the function behind *raw*, keeping its descriptor kind."""
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


class Patcher:
    """Replaces named attributes and puts them back."""

    def __init__(self) -> None:
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Targets that could not be resolved, as ``module:path`` strings.
        self.absent: List[str] = []

    def patch(
        self,
        module_name: str,
        path: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> bool:
        """Wrap one target with *make*; ``False`` when it does not exist."""
        found = resolve(module_name, path)
        if found is None or not callable(getattr(found[0], found[1], None)):
            self.absent.append(f"{module_name}:{path}")
            return False
        owner, attr, raw = found
        setattr(owner, attr, _rewrap(raw, make))
        self._patched.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


class ProbeCounts:
    """The benchmark's probe-bus observer (counts only, no timer families)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {family: 0 for family in COUNTED_FAMILIES}
        self.releases: Dict[str, int] = {"ready": 0, "stall": 0, "flush": 0}
        #: ``held_for`` of every release that was actually held back.
        self.held_for: List[float] = []

    def probe_handlers(self) -> Dict[str, Callable[..., Any]]:
        counts = self.counts

        def counter(family: str) -> Callable[..., None]:
            def bump(*_args: Any) -> None:
                counts[family] += 1

            return bump

        handlers = {family: counter(family) for family in COUNTED_FAMILIES}
        handlers["order_release"] = self._on_order_release
        return handlers

    def _on_order_release(
        self, _t: float, _node: int, _frame: Any, _level: str, reason: str, held_for: float
    ) -> None:
        self.releases[reason] = self.releases.get(reason, 0) + 1
        if held_for > 0.0:
            self.held_for.append(held_for)


class Recorder(Patcher):
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []
        self.name_ids = array("h")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        #: Summed ``len(result)`` per span name in :data:`SIZED_RESULTS`.
        self.result_bytes: Dict[str, int] = {}
        #: Seconds each timer callback fired after it was due.
        self.timer_slop: List[float] = []
        self.probe_counts = ProbeCounts()

    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for name, module_name, path in targets:
            self.patch(module_name, path, functools.partial(self._wrapper_for, name))

    def _wrapper_for(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in TIMER_TARGETS:
            fn = self._lateness_wrapper(fn)
        elif name in SIZED_RESULTS:
            fn = self._size_wrapper(name, fn)
        return self.span_wrapper(name, fn)

    def span_wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A shim around *fn* that records one span per call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _size_wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        result_bytes = self.result_bytes
        result_bytes[name] = 0

        @functools.wraps(fn)
        def sized(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            result_bytes[name] += len(result)
            return result

        return sized

    def _lateness_wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """For ``schedule(self, delay, callback, *args)``: swap the callback
        for one that notes how long after its due time the loop ran it."""
        slop = self.timer_slop
        clock = perf_counter

        @functools.wraps(fn)
        def scheduled(clock_self: Any, delay: float, callback: Callable[..., Any], *args: Any) -> Any:
            due = clock() + delay

            def fired(*cb_args: Any) -> Any:
                slop.append(clock() - due)
                return callback(*cb_args)

            return fn(clock_self, delay, fired, *args)

        return scheduled

    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "SpanWindow":
        """The spans that began inside ``[start, end]`` (one timed region)."""
        return SpanWindow(self, start, end)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanWindow:
    """Aggregates over the spans of one timed region."""

    def __init__(self, recorder: Recorder, start: float, end: float) -> None:
        self.names = list(recorder.names)
        self.wall = end - start
        name_ids = np.array(recorder.name_ids, dtype=np.int64)
        parents = np.array(recorder.parents, dtype=np.int64)
        starts = np.array(recorder.starts, dtype=np.float64)
        ends = np.array(recorder.ends, dtype=np.float64)
        inside = (starts >= start) & (starts <= end)
        durations = np.where(inside, ends - starts, 0.0)
        size = len(self.names)
        self._calls = np.bincount(name_ids[inside], minlength=size)
        self._inclusive = np.bincount(name_ids, weights=durations, minlength=size)
        child = inside & (parents >= 0)
        parent_names = name_ids[parents[child]]
        charged = np.bincount(parent_names, weights=durations[child], minlength=size)
        self._self = self._inclusive - charged
        # A nested call into the same layer (send_data -> transmit) is one
        # entry into the layer, not two.
        layers = sorted({_layer(n) for n in self.names})
        layer_of = np.array([layers.index(_layer(n)) for n in self.names], dtype=np.int64)
        nested = np.zeros(len(name_ids), dtype=bool)
        if size:
            nested[child] = layer_of[name_ids[child]] == layer_of[parent_names]
        self._entries = np.bincount(name_ids[inside & ~nested], minlength=size)
        self.root_time = float(durations[inside & (parents < 0)].sum())
        self._starts = starts
        self._inside_ids = np.where(inside, name_ids, -1)

    def _select(self, prefix: str) -> List[int]:
        return [
            i
            for i, name in enumerate(self.names)
            if name == prefix or name.startswith(prefix + ".")
        ]

    def has(self, prefix: str) -> bool:
        """Whether any target under *prefix* was wrapped at all."""
        return bool(self._select(prefix))

    def calls(self, prefix: str) -> int:
        """Calls of the spans named *prefix* (or ``prefix.*``)."""
        return int(sum(self._calls[i] for i in self._select(prefix)))

    def entries(self, prefix: str) -> int:
        """Calls under *prefix* not nested in a span of the same layer."""
        return int(sum(self._entries[i] for i in self._select(prefix)))

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans under *prefix*."""
        return float(sum(self._self[i] for i in self._select(prefix)))

    def inclusive_time(self, prefix: str) -> float:
        """Summed duration, children included, of the spans under *prefix*."""
        return float(sum(self._inclusive[i] for i in self._select(prefix)))

    def start_times(self, name: str) -> "np.ndarray":
        """Sorted start instants of the spans named exactly *name*."""
        if name not in self.names:
            return np.zeros(0)
        return np.sort(self._starts[self._inside_ids == self.names.index(name)])

    @property
    def unattributed_share(self) -> float:
        """Share of the timed region that ran under no span at all."""
        return max(0.0, 1.0 - self.root_time / self.wall) if self.wall > 0 else 0.0
