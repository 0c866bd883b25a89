"""Differential sim <-> live conformance suite.

Every scripted scenario (see :mod:`repro.live.scenarios`) runs twice —
once on the discrete-event kernel, once over real asyncio TCP sockets on
loopback — across multiple seeds, and the two executions must agree:

* **identical delivered-pair sets** — the same ``(message, subscriber)``
  pairs are delivered (and the same pairs given up) on both substrates;
* **at-most-once post-dedup** — no broker ever accepts the same transfer
  twice (the accept ledger's max count is 1 on both sides, and the
  sanitizer enforces it live);
* **ACK-timer settlement** — every started timer settles exactly once
  (started == settled, no orphan timers at drain);
* **sanitizer-clean** — both runs finish without a single invariant
  violation.

Scenario fault scripts are whole-run per-direction per-kind drop-all
rules, so the delivered-pair set is a timing-independent function of the
world — wall-clock jitter in the live run cannot change what gets
delivered, only when.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.live import scenarios
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import SCENARIO_KINDS, make_scenario, run_sim_scenario

#: The ISSUE's conformance matrix: >= 5 seeds x >= 3 scenario kinds.
SEEDS = (0, 1, 2, 3, 4)
KINDS = ("clean", "link_loss", "ack_loss")


def assert_conformant(sim: dict, live: dict) -> None:
    """The differential contract between one sim run and one live run."""
    # Identical delivered-pair sets (and identical give-ups).
    assert sim["delivered"] == live["delivered"]
    assert sim["gave_up"] == live["gave_up"]
    assert sim["deliveries"] == live["deliveries"]
    assert sim["published"] == live["published"]
    assert sim["expected"] == live["expected"]
    # At-most-once post-dedup on both substrates.
    assert sim["max_accepts_per_transfer"] <= 1
    assert live["max_accepts_per_transfer"] <= 1
    # Every ARQ copy settled; every timer settled exactly once.
    assert sim["in_flight"] == 0 and live["in_flight"] == 0
    assert sim["timers_started"] == sim["timers_settled"]
    assert live["timers_started"] == live["timers_settled"]
    # Sanitizer-clean (finish() already raised on any violation; the
    # counter is belt-and-braces).
    assert sim["violations"] == 0 and live["violations"] == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_sim_and_live_agree(kind, seed):
    sim = run_sim_scenario(make_scenario(kind), seed=seed, sanitize=True)
    live = run_live_scenario(make_scenario(kind), seed=seed, sanitize=True)
    assert_conformant(sim, live)
    # The scripted worlds keep every pair reachable, so conformance is
    # never satisfied by two empty runs.
    assert len(sim["delivered"]) == sim["expected"]


def test_failover_bounce_agrees():
    """The PR-4 diamond (dead fast path, upstream bounce) conforms too."""
    sim = run_sim_scenario(make_scenario("failover_bounce"), seed=0, sanitize=True)
    live = run_live_scenario(make_scenario("failover_bounce"), seed=0, sanitize=True)
    assert_conformant(sim, live)
    # The dead 1->3 link forces retransmission on both substrates.
    assert sim["retransmissions"] > 0
    assert live["retransmissions"] > 0


def test_adversarial_scenarios_exercise_recovery():
    """Loss scenarios must actually trigger ARQ recovery, not idle past it."""
    for kind in ("link_loss", "ack_loss"):
        sim = run_sim_scenario(make_scenario(kind), seed=0, sanitize=True)
        assert sim["retransmissions"] > 0, kind
        assert len(sim["delivered"]) == sim["expected"], kind


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_latent_timers_agree_with_eager_timers_under_the_fault_script(
    kind, monkeypatch
):
    """The sim scenario runs the production wiring: ACK timers stay latent.

    A sanitized run keeps every timer eager (the sanitizer observes the
    ``timer_*`` probe families); an unsanitized one elides them, and a
    copy whose ACK the fault script drops must materialise its timer
    through the network's ACK-loss observer. Both must reduce to the
    same facts.
    """
    elided = []
    harvest = scenarios.harvest

    def spy(scenario, ctx, strategy, ledger, sanitizer):
        elided.append(strategy.arq.timers_elided)
        return harvest(scenario, ctx, strategy, ledger, sanitizer)

    monkeypatch.setattr(scenarios, "harvest", spy)
    eager = run_sim_scenario(make_scenario(kind), seed=0, sanitize=True)
    latent = run_sim_scenario(make_scenario(kind), seed=0, sanitize=False)
    assert elided[0] == 0 and elided[1] > 0
    assert latent == {key: eager[key] for key in latent}


def test_launcher_differential_smoke():
    """The CLI launcher runs one differential scenario end to end."""
    repo = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [
            sys.executable,
            str(repo / "scripts" / "run_live.py"),
            "failover_bounce",
            "--seed",
            "2",
            "--differential",
        ],
        cwd=str(repo),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "AGREE" in result.stdout


def test_launcher_dumps_the_wire_readably():
    """`--dump-wire`: one decoded envelope per DATA frame, on stderr."""
    repo = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_live.py"), "clean", "--dump-wire"],
        cwd=str(repo),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stderr.splitlines()
    assert lines, "nothing was dumped"
    for line in lines:
        stamp, edge, envelope = line.split(" ", 2)
        src, dst = edge.split("->")
        fields = json.loads(envelope)
        assert float(stamp) >= 0.0 and fields["s"] == int(src) and fields["k"] == "d"
        assert fields["rp"][-1] == int(src) != int(dst)
