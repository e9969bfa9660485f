"""Pins: the Python and builtin calls one call costs, per side and package.

``scripts/callcounts.py`` drives each shape in a fresh interpreter under a
profile hook and reports per-call figures.  The ``repro.*`` rows are pinned
here: exactly on the calling thread (the client), and within
:data:`SERVER_SLACK` of the side's pinned total on the server threads,
whose pool threads take turns by the scheduler's choice.  Calls outside
``repro`` are reported by the script, not pinned.

Pins are keyed by Python minor version: the interpreter decides how many
calls a line of Python makes (3.12 inlines comprehensions, PEP 709).  On a
minor without pins the test skips, and its reason carries the measured
figures to pin.  A changed pin is a named line in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "callcounts.py"

#: counted calls per shape: enough for the server's 0.5 %, quick in tier-1
CALLS = 300

#: server figures may differ from their pin by this share of the side's total
SERVER_SLACK = 0.005

#: minor -> shape -> side -> package -> (python, builtin, syscall) per call
PINS = {
    (3, 11): {
        "xdr_echo": {
            "client": {
                "bindings": (3, 1, 0),
                "encoding": (6, 8, 0),
                "transport": (12, 18, 3),
            },
            "server": {
                "bindings": (2, 3, 0),
                "encoding": (7, 11, 0),
                "obs": (1, 3, 0),
                "transport": (14, 20, 4),
            },
        },
        "mailbox_publish": {
            "client": {
                "encoding": (12, 57, 0),
                "messaging": (5, 1, 0),
                "transport": (10, 18, 3),
            },
            "server": {
                "encoding": (13, 35, 0),
                "messaging": (13, 15, 0),
                "obs": (2, 4, 0),
                "transport": (12, 19, 4),
                "util": (1, 1, 0),
            },
        },
    },
}

FIELDS = ("python", "builtin", "syscall")


@pytest.fixture(scope="module")
def measured() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--calls", str(CALLS), "--json"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return json.loads(out)["shapes"]


def repro_rows(side: dict) -> dict:
    """*side*'s ``repro.*`` packages as ``{package: (python, builtin, syscall)}``."""
    return {
        package: tuple(row[field] for field in FIELDS)
        for package, row in side.items()
        if package != "other"
    }


def pins() -> dict:
    minor = sys.version_info[:2]
    if minor not in PINS:
        return {}
    return PINS[minor]


@pytest.mark.parametrize("shape", sorted(PINS[(3, 11)]))
def test_client_counts_are_exact(measured, shape):
    if not pins():
        pytest.skip(f"no pins for Python {sys.version_info[:2]}; measured: "
                    + json.dumps({s: {side: repro_rows(r) for side, r in m.items()}
                                  for s, m in measured.items()}, sort_keys=True))
    got = repro_rows(measured[shape]["client"])
    assert got == pins()[shape]["client"]


@pytest.mark.parametrize("shape", sorted(PINS[(3, 11)]))
def test_server_counts_hold_within_the_slack(measured, shape):
    if not pins():
        pytest.skip(f"no pins for Python {sys.version_info[:2]}")
    pinned = pins()[shape]["server"]
    got = repro_rows(measured[shape]["server"])
    assert sorted(got) == sorted(pinned)
    for i, field in enumerate(FIELDS):
        total = sum(row[i] for row in pinned.values())
        slack = SERVER_SLACK * total
        for package, row in pinned.items():
            assert abs(got[package][i] - row[i]) <= slack, (
                f"server {package} {field}: {got[package][i]:.3f} per call, "
                f"pinned {row[i]} ± {slack:.3f}"
            )
        measured_total = sum(row[i] for row in got.values())
        assert abs(measured_total - total) <= slack, (
            f"server {field} total: {measured_total:.3f}, pinned {total} ± {slack:.3f}"
        )
