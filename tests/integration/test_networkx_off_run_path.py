"""networkx stays off the DCRD run path.

Importing networkx costs every process about 15 MiB of resident memory
before anything runs (``docs/PERFORMANCE.md``). DCRD needs an adjacency
list and a Dijkstra, which ``repro.overlay.topology`` ports; networkx is
imported only inside the baselines' path helpers and the extension
generators (Erdős–Rényi, Waxman).
These cells run a DCRD world in a fresh interpreter and check that nothing
on the way loaded it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Each step runs in order in one fresh interpreter; after each, the script
#: records whether networkx has been imported.
SCRIPT = """
import json, sys
loaded = {}

import repro.live.broker
loaded["import repro.live.broker"] = "networkx" in sys.modules

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
for kind, extra in (("regular", {"degree": 4}), ("full_mesh", {})):
    config = ExperimentConfig(
        topology_kind=kind, num_nodes=12, num_topics=2, duration=2.0, **extra
    )
    summary = build_environment(config, "DCRD", 1).execute()
    assert summary.delivery_ratio > 0
    loaded[kind + " world executed"] = "networkx" in sys.modules

from repro.live.scenarios import make_scenario, run_sim_scenario
run_sim_scenario(make_scenario("clean", 1))
loaded["run_sim_scenario(clean)"] = "networkx" in sys.modules

print(json.dumps(loaded))
"""


def test_a_dcrd_process_never_imports_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert len(loaded) == 4
    assert not any(loaded.values()), loaded


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
