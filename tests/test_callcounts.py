"""Pins: the Python and builtin calls one call costs, per side and package.

``scripts/callcounts.py`` drives each shape in a fresh interpreter under a
profile hook and reports per-call figures.  The ``repro.*`` rows are pinned
here: exactly on the calling thread (the client) and on the client's push
reader, and within :data:`SERVER_SLACK` of the side's pinned total on the
server threads, whose pool threads take turns by the scheduler's choice.
Calls outside ``repro`` are reported by the script, not pinned, and so are
the packages :data:`UNPINNED` names for a shape.  A figure that is not a
whole number per call (an ack batch serves sixteen drained messages) is
compared at three decimals.

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

#: shape -> packages left out of its pins: a drain's push reader takes as
#: many frames per read as have arrived, so its transport rows, and the
#: waits they cause on the other threads, follow the scheduler
UNPINNED = {"mailbox_drain": ("transport",)}

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
                "encoding": (4, 8, 0),
                "messaging": (6, 1, 0),
                "transport": (10, 18, 3),
            },
            "server": {
                "encoding": (5, 8, 0),
                "messaging": (13, 15, 0),
                "obs": (2, 4, 0),
                "transport": (12, 19, 4),
                "util": (1, 1, 0),
            },
        },
        "mailbox_drain": {
            "client": {
                "encoding": (0.063, 0.19, 0),
                "messaging": (6.127, 4.127, 0),
            },
            "reader": {
                "encoding": (2.027, 8.107, 0),
                "messaging": (4.053, 2.027, 0),
            },
            "server": {
                "encoding": (2.28, 10.45, 0),
                "messaging": (14.757, 18.177, 0),
                "obs": (4.053, 11.147, 0),
                "util": (1.013, 1.013, 0),
            },
        },
    },
}

# an operation looked up on the stub every call costs what a bound one does
for _shapes in PINS.values():
    _shapes["xdr_echo_unbound"] = _shapes["xdr_echo"]

FIELDS = ("python", "builtin", "syscall")


@pytest.fixture(scope="module")
def measured() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--calls", str(CALLS), "--json"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return json.loads(out)["shapes"]


def repro_rows(side: dict, shape: str) -> dict:
    """*side*'s pinned ``repro.*`` packages as ``{package: (python, builtin, syscall)}``."""
    return {
        package: tuple(round(row[field], 3) for field in FIELDS)
        for package, row in side.items()
        if package != "other" and package not in UNPINNED.get(shape, ())
    }


def pins() -> dict:
    minor = sys.version_info[:2]
    if minor not in PINS:
        return {}
    return PINS[minor]


@pytest.mark.parametrize("shape, side", [
    (shape, side) for shape, sides in sorted(PINS[(3, 11)].items())
    for side in ("client", "reader") if side in sides
])
def test_client_counts_are_exact(measured, shape, side):
    if not pins():
        pytest.skip(f"no pins for Python {sys.version_info[:2]}; measured: "
                    + json.dumps({s: {sd: repro_rows(r, s) for sd, r in m.items()}
                                  for s, m in measured.items()}, sort_keys=True))
    got = repro_rows(measured[shape][side], shape)
    assert got == pins()[shape][side]


@pytest.mark.parametrize("shape", sorted(PINS[(3, 11)]))
def test_server_counts_hold_within_the_slack(measured, shape):
    if not pins():
        pytest.skip(f"no pins for Python {sys.version_info[:2]}")
    pinned = pins()[shape]["server"]
    got = repro_rows(measured[shape]["server"], shape)
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
