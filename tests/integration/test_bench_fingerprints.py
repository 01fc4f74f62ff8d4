"""The pinned ``BENCH_simcore.json`` fingerprints are the behaviour contract.

A scenario's fingerprint digests its full commit trace plus the protocol
counters (see ``benchmarks/bench_simcore.py``).  A perf-only change must
leave every one of them byte-identical; a moved fingerprint means changed
protocol behaviour and needs a re-recorded entry that explains why.

The four small scenarios run in tier-1.  The n >= 64 ones are marked
``scale`` and run in the CI scale job with ``-m scale``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from bench_simcore import run_scenario  # noqa: E402


def _pinned_fingerprints() -> dict[str, str]:
    """Seed-1 fingerprint per scenario from its latest recorded entry."""
    pinned = {}
    for entry in json.loads((_ROOT / "BENCH_simcore.json").read_text()):
        for result in entry["results"]:
            if result["seed"] == 1:
                pinned[result["scenario"]] = result["fingerprint"]
    return pinned


PINNED = _pinned_fingerprints()


def _scale(name: str):
    return pytest.param(name, marks=pytest.mark.scale)


@pytest.mark.parametrize(
    "scenario",
    [
        "steady-n4",
        "fallback-n4",
        "steady-n16",
        "lossy20-n4",
        _scale("steady-n64"),
        _scale("steady-n256"),
        _scale("fallback-n64"),
    ],
)
def test_fingerprint_matches_latest_record(scenario):
    assert run_scenario(scenario, seed=1)["fingerprint"] == PINNED[scenario]


def test_every_recorded_scenario_is_checked():
    assert set(PINNED) == {
        "steady-n4",
        "fallback-n4",
        "steady-n16",
        "lossy20-n4",
        "steady-n64",
        "steady-n256",
        "fallback-n64",
    }
