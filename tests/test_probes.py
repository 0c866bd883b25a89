"""Unit tests of the repro.probes instrumentation bus."""

import ast
import re
from pathlib import Path

import pytest

from repro import probes
from repro.probes import (
    FAMILIES,
    ProbeCounters,
    ProbeError,
    ProbeObserver,
    ProbeRegistry,
)
from repro.util.errors import ReproError


class Recorder(ProbeObserver):
    """Auto-discovered handlers that log (name, args) tuples."""

    def __init__(self, name):
        self.name = name
        self.calls = []

    def on_transmit(self, *args):
        self.calls.append((self.name, "transmit", args))

    def on_deliver(self, *args):
        self.calls.append((self.name, "deliver", args))


def fresh_registry():
    namespace = {}
    return ProbeRegistry(namespace), namespace


def test_default_slots_are_none():
    registry, ns = fresh_registry()
    assert set(ns) == {"on_" + family for family in FAMILIES}
    assert all(slot is None for slot in ns.values())
    assert registry.observers() == ()


def test_module_slots_default_none_and_cover_every_family():
    for family in FAMILIES:
        assert getattr(probes, "on_" + family) is None


def test_single_observer_binds_handler_directly():
    registry, ns = fresh_registry()
    observer = Recorder("a")
    registry.attach(observer)
    # One observer: the slot IS the bound method, no fusion wrapper.
    assert ns["on_transmit"] == observer.on_transmit
    assert ns["on_publish"] is None  # unsubscribed family stays a no-op
    ns["on_transmit"](1, 2)
    assert observer.calls == [("a", "transmit", (1, 2))]


def test_detach_restores_none_slots():
    registry, ns = fresh_registry()
    observer = Recorder("a")
    registry.attach(observer)
    registry.detach(observer)
    assert all(slot is None for slot in ns.values())
    assert registry.observers() == ()
    registry.detach(observer)  # unknown observers are ignored


def test_fused_chain_runs_in_attach_order():
    registry, ns = fresh_registry()
    log = []
    first, second = Recorder("first"), Recorder("second")
    first.calls = second.calls = log
    registry.attach(first)
    registry.attach(second)
    ns["on_deliver"]("x")
    assert [name for name, _, _ in log] == ["first", "second"]
    assert registry.observers() == (first, second)


def test_attach_is_idempotent():
    registry, ns = fresh_registry()
    observer = Recorder("a")
    registry.attach(observer)
    registry.attach(observer)
    assert registry.observers() == (observer,)
    ns["on_transmit"]()
    assert len(observer.calls) == 1


def test_explicit_probe_handlers_mapping_wins():
    registry, ns = fresh_registry()
    calls = []

    class Custom:
        def probe_handlers(self):
            return {"ack": lambda *a: calls.append(a)}

        def on_transmit(self, *a):  # not in the mapping: must NOT register
            raise AssertionError("bypassed probe_handlers")

    registry.attach(Custom())
    assert ns["on_transmit"] is None
    ns["on_ack"](0.0, 1, 2, "frame")
    assert calls == [(0.0, 1, 2, "frame")]


def test_unknown_family_rejected():
    registry, _ = fresh_registry()

    class Bogus:
        def probe_handlers(self):
            return {"no_such_family": lambda: None}

    with pytest.raises(ProbeError):
        registry.attach(Bogus())
    assert registry.observers() == ()
    assert isinstance(ProbeError("x"), ReproError)


def test_non_callable_handler_rejected():
    registry, _ = fresh_registry()

    class Bogus:
        def probe_handlers(self):
            return {"ack": "not callable"}

    with pytest.raises(ProbeError):
        registry.attach(Bogus())


def test_probe_counters_counts_every_family():
    registry, ns = fresh_registry()
    counters = ProbeCounters()
    registry.attach(counters)
    for family in FAMILIES:
        assert ns["on_" + family] is not None
    ns["on_transmit"](0.0, 1, 2, None, True, None, 0.01, 0.0)
    ns["on_transmit"](0.0, 1, 2, None, True, None, 0.01, 0.0)
    ns["on_deliver"](0.0, 3, None)
    ns["on_timer_cancelled"](5)
    assert counters.counts == {"transmit": 2, "deliver": 1, "timer_cancelled": 1}
    assert counters.total() == 4
    assert counters.perf_counters() == {
        "probes.deliver": 1.0,
        "probes.timer_cancelled": 1.0,
        "probes.transmit": 2.0,
    }


_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_active_hook_checks_outside_registered_observers():
    """Grep-enforced: no ``ACTIVE`` mirror and no ``MUTATE_`` flag in src.

    Hook sites go through the :mod:`repro.probes` slots and nothing else,
    and faults are injected from the tests (``tests/mutations.py``), never
    by a flag the production code consults.
    """
    pattern = re.compile(r"\bACTIVE\b|MUTATE_")
    offenders = [
        f"{path.relative_to(_SRC)}:{lineno}: {line.strip()}"
        for path in sorted(_SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)


def test_only_the_composition_roots_import_the_sanitizer():
    """AST-enforced: no protocol layer depends on the run record or on
    what it checks and reports (:mod:`repro.record`, :mod:`repro.sanity`,
    :mod:`repro.trace`); only the composition roots and front ends do,
    and the three modules import one another one way."""
    observer_modules = ("repro.record", "repro.sanity", "repro.trace")
    importers = {}
    for path in _SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for module in observer_modules:
                if any(name.startswith(module) for name in names):
                    importers.setdefault(str(path.relative_to(_SRC)), set()).add(
                        module.split(".")[1]
                    )
    assert importers == {
        "__init__.py": {"record", "sanity"},
        "cli.py": {"trace"},
        "stack.py": {"record"},
        "experiments/runner.py": {"record"},
        "live/broker.py": {"record", "sanity"},
        "live/cluster.py": {"record"},
        "live/scenarios.py": {"record"},
        "record.py": {"sanity"},
        "trace.py": {"record"},
    }


def _is_slot(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_probes"
        and node.attr.startswith("on_")
    )


def test_probe_slot_results_are_never_used():
    """AST-enforced: every family is observation-only at its site.

    A call of a slot (or of a local bound from one) is a bare expression
    statement: a site that reads what its observers return lets an
    observer steer the protocol.
    """
    offenders = set()
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and any(_is_slot(part) for part in ast.walk(node.value))
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if (
                    _is_slot(callee)
                    or (isinstance(callee, ast.Name) and callee.id in bound)
                ) and not isinstance(parents[node], ast.Expr):
                    offenders.add(
                        f"{path.relative_to(_SRC)}:{node.lineno}: "
                        f"{ast.unparse(parents[node])}"
                    )
    assert not offenders, "\n".join(sorted(offenders))


def _call_sites(pattern: str) -> set:
    """Files under ``src/repro`` with a line matching *pattern*."""
    regex = re.compile(pattern)
    return {
        str(path.relative_to(_SRC))
        for path in _SRC.rglob("*.py")
        if any(regex.search(line) for line in path.read_text().splitlines())
    }


#: The sanitizer's and tracer's own install/uninstall entry points, retired
#: in favour of ``probes.attach``/``probes.detach``: no module calls them.
_RETIRED = {r"\b_?sanity\.(un)?install\(", r"\b_?trace\.(un)?install\("}


@pytest.mark.parametrize(
    "pattern",
    [
        r"\bRuntimeContext\(",
        r'(?<!")\bBrokerRuntime\(',
        r"\b_?sanity\.(un)?install\(",
        r"\b_?trace\.(un)?install\(",
        r"\b_?probes\.(attach|detach)\(",
        r"\.prewarm_directions\(|\.enable_timer_elision\(",
    ],
)
def test_the_stack_is_wired_and_observed_from_one_module(pattern):
    """Grep-enforced: one composition root, one observer session.

    Every world-builder goes through ``repro.stack``: a second place
    that constructs the context or the broker runtimes, switches on the
    substrate fast paths, or attaches observers to the probe bus is a
    composition root that can drift from the others. The retired
    per-observer install wrappers must not come back, even there.
    """
    expected = set() if pattern in _RETIRED else {"stack.py"}
    assert _call_sites(pattern) == expected


def test_network_capability_probes_do_not_grow_back():
    """Grep-enforced: the stack uses the substrate through its contract.

    Every transport and clock member the stack uses is a
    ``repro.substrate`` protocol member, called directly; a
    ``getattr(network, "...", <default>)`` or ``getattr(sim, "...",
    <default>)`` probe — whatever its default — is a second path in
    waiting, so there is none.
    """
    regex = re.compile(r'getattr\(\s*(?:\w+\.)*(?:_?network|_?sim|clock)\s*,\s*"(\w+)"')
    found = {
        (str(path.relative_to(_SRC)), name)
        for path in _SRC.rglob("*.py")
        for name in regex.findall(path.read_text())
    }
    assert found == set()


_EXPERIMENTS = _SRC / "experiments"


def test_the_sweep_engine_declares_no_globals():
    """Grep-enforced: the engine's state lives on ``SweepExecutor``.

    ``cache.py``'s source-hash memo (``_FINGERPRINT``) is the one
    ``global`` the experiments package keeps.
    """
    regex = re.compile(r"^\s*global\s")
    found = {
        path.name
        for path in _EXPERIMENTS.glob("*.py")
        if any(regex.match(line) for line in path.read_text().splitlines())
    }
    assert found == {"cache.py"}


def test_experiments_never_assign_into_an_imported_module():
    """AST-enforced: no ``name.ATTR = ...`` on anything imported from repro.

    Swapping another module's (or class's) attribute, under
    ``try/finally`` or not, is process-wide state that two worlds in one
    process would fight over.
    """
    offenders = []
    for path in sorted(_EXPERIMENTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (getattr(node, "module", None) or alias.name).split(".")[0] == "repro"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                root = target
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(root, ast.Name)
                    and root.id in imported
                ):
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(target)}")
    assert not offenders, "\n".join(offenders)


def test_experiments_reach_into_core_only_for_the_strategy_registry():
    """Grep-enforced: ``repro.core`` enters the experiments layer once."""
    found = {
        (path.name, line.strip())
        for path in _EXPERIMENTS.glob("*.py")
        for line in path.read_text().splitlines()
        if "repro.core" in line
    }
    assert found == {("runner.py", "from repro.core.forwarding import DcrdStrategy")}


def test_module_registry_attach_detach_roundtrip():
    observer = Recorder("module")
    before = probes.observers()
    probes.attach(observer)
    try:
        assert observer in probes.observers()
        assert probes.on_transmit is not None
        probes.on_transmit(0.0, 1, 2, None, True, None, 0.01, 0.0)
        assert observer.calls
    finally:
        probes.detach(observer)
    assert probes.observers() == before
    if not before:
        assert probes.on_transmit is None
