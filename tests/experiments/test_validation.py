"""Tests for the paper-claims verifier and the claims of the table."""

import pytest

from repro.experiments.figures import ARTIFACTS
from repro.experiments.validation import ClaimOutcome, render_outcomes


def test_unknown_figure_rejected():
    with pytest.raises(KeyError):
        ARTIFACTS["figure99"]


def test_registry_covers_main_figures():
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        assert ARTIFACTS[name].claims, name


def test_render_outcomes_format():
    outcomes = [
        ClaimOutcome(artifact="figure2", claim="x", passed=True, detail="ok"),
        ClaimOutcome(artifact="figure2", claim="y", passed=False, detail="bad"),
    ]
    text = render_outcomes(outcomes)
    assert "[PASS]" in text and "[FAIL]" in text


def _verify_at_small_scale(name):
    artifact = ARTIFACTS[name]
    outcomes = artifact.verify(artifact.driver(duration=15.0, seeds=(0,)))
    failed = [o for o in outcomes if not o.passed]
    assert failed == [], render_outcomes(outcomes)


def test_figure2_claims_verify_at_small_scale():
    _verify_at_small_scale("fig2")


def test_figure6_claims_verify_at_small_scale():
    _verify_at_small_scale("fig6")


def test_figure8_claims_verify_at_small_scale():
    _verify_at_small_scale("fig8")
