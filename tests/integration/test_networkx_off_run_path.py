"""networkx stays off the DCRD run path.

Importing networkx costs every process about 15 MiB of resident memory
before anything runs (``docs/PERFORMANCE.md``). DCRD needs an adjacency
list and a Dijkstra, which ``repro.overlay.topology`` ports; networkx is
imported only inside the baselines' path helpers and the extension
generators (Erdős–Rényi, Waxman).
These cells run a DCRD world in a fresh interpreter and check that nothing
on the way loaded it.

A simulator process does not load the socket stack or the process pool
either: :mod:`asyncio` (with :mod:`ssl`) is imported by a live run, and
:mod:`concurrent.futures` where a sweep builds its worker pool, so
importing :mod:`repro.live.runtime` or :mod:`repro.experiments.sweeps`
costs a simulator run nothing (about 8 MiB of resident memory).
"""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: What a simulator process must not load besides networkx: the socket
#: stack and the process pool.
SOCKETS_AND_POOL = ("asyncio", "ssl", "concurrent.futures")

#: Each step runs in order in one fresh interpreter; after each, the script
#: records which of networkx and :data:`SOCKETS_AND_POOL` have been
#: imported. The live broker comes last: it is the socket stack.
SCRIPT = """
import json, sys
WATCHED = ("networkx",) + tuple(sys.argv[1:])
loaded = {}

def note(step):
    loaded[step] = [name for name in WATCHED if name in sys.modules]

import repro, repro.live.runtime
note("import repro, repro.live.runtime")

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
for kind, extra in (("regular", {"degree": 4}), ("full_mesh", {})):
    config = ExperimentConfig(
        topology_kind=kind, num_nodes=12, num_topics=2, duration=2.0, **extra
    )
    summary = build_environment(config, "DCRD", 1).execute()
    assert summary.delivery_ratio > 0
    note(kind + " world executed")

from repro.live.scenarios import make_scenario, run_sim_scenario
run_sim_scenario(make_scenario("clean", 1))
note("run_sim_scenario(clean)")

import repro.live.broker
note("import repro.live.broker")

print(json.dumps(loaded))
"""


@functools.lru_cache(maxsize=None)
def _loaded_after_each_step():
    """``{step: [watched modules loaded so far]}`` from one fresh run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *SOCKETS_AND_POOL],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert len(loaded) == 5
    return loaded


def test_a_dcrd_process_never_imports_networkx():
    loaded = _loaded_after_each_step()
    assert not any("networkx" in names for names in loaded.values()), loaded


def test_a_simulator_run_loads_no_socket_stack_or_process_pool():
    loaded = _loaded_after_each_step()
    *simulated, (last, live) = loaded.items()
    assert simulated and all(names == [] for _, names in simulated), loaded
    # The check can see these modules: the live broker loads the stack.
    assert last == "import repro.live.broker"
    assert {"asyncio", "ssl"} <= set(live), loaded


def test_no_module_imports_networkx_at_top_level():
    """The grep CI runs too: networkx is imported inside the functions that
    need it, never when a module loads."""
    pattern = re.compile(r"^(import networkx|from networkx)", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
