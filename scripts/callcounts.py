#!/usr/bin/env python
"""Count what one call costs in function calls, per side and package.

Timing drifts between runs on a shared box; the number of Python and
builtin calls a call makes does not.  This script drives two canonical call
shapes in one process, server and client together, with defaults
everywhere:

* ``xdr_echo`` -- an ``echo(int)`` over XDR/TCP, deployed in a
  ``LightweightContainer`` and called through a ``DynamicStubFactory`` stub;
* ``mailbox_publish`` -- one ``publish`` through a ``MailboxTcpClient`` to a
  ``MailboxTcpServer``.

``sys.setprofile`` and ``threading.setprofile`` are installed before set-up,
so every thread the program starts is seen; counting is switched on after
a warm-up, for *calls* calls.  A Python call is counted in the package of
the function called, a builtin call in the package of its caller.  The
calling thread is the ``client`` side, every other thread the ``server``
side.  Syscalls are the builtin calls on sockets, poll and epoll objects
and the ``os`` descriptor functions, by name.

Usage::

    python scripts/callcounts.py                 # both shapes, 2000 calls each
    python scripts/callcounts.py --calls 300 --json

``tests/test_callcounts.py`` pins the ``repro.*`` rows.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import socket
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script: make ``repro`` importable
    sys.path.insert(0, str(ROOT / "src"))

from repro.bindings import ClientContext, DynamicStubFactory  # noqa: E402
from repro.container import LightweightContainer  # noqa: E402
from repro.messaging import MailboxTcpClient, MailboxTcpServer, MessageBroker  # noqa: E402

__all__ = ["SHAPES", "measure", "main"]

#: calls made before counting starts: plan caches, pool threads, lazy dials
WARMUP = 200

_SYSCALL_OWNERS = (socket.socket, type(select.epoll()), type(select.poll()))
_OS_SYSCALLS = {"read", "write", "eventfd_read", "eventfd_write", "close"}


class EchoService:
    """The deployed component of the ``xdr_echo`` shape."""

    def echo(self, value: int) -> int:
        return value


class _Counter:
    """The profile hook: per-thread tallies, switched on by ``active``."""

    def __init__(self):
        self.active = False
        self.tables: dict[int, dict] = {}  # thread id -> {key: count}
        self._packages: dict[str, str] = {}

    def _package(self, module: str) -> str:
        package = self._packages.get(module)
        if package is None:
            parts = module.split(".")
            package = parts[1] if parts[0] == "repro" and len(parts) > 1 else (
                "repro" if parts[0] == "repro" else "other")
            self._packages[module] = package
        return package

    def hook(self, frame, event, arg):
        if not self.active or event not in ("call", "c_call"):
            return
        table = self.tables.get(threading.get_ident())
        if table is None:
            table = self.tables.setdefault(threading.get_ident(), {})
        package = self._package(frame.f_globals.get("__name__", ""))
        if event == "call":
            key = (package, "python")
        else:
            key = (package, "builtin")
            owner = getattr(arg, "__self__", None)
            name = None
            if isinstance(owner, _SYSCALL_OWNERS):
                name = f"{type(owner).__name__}.{arg.__name__}"
            elif owner is os and arg.__name__ in _OS_SYSCALLS:
                name = f"os.{arg.__name__}"
            if name is not None:
                sys_key = (package, "syscall", name)
                table[sys_key] = table.get(sys_key, 0) + 1
        table[key] = table.get(key, 0) + 1



def _xdr_echo():
    container = LightweightContainer("callcounts", host="serverhost")
    handle = container.deploy(EchoService, bindings=("xdr",))
    stub = DynamicStubFactory(ClientContext(host="clienthost")).create(
        handle.document, prefer=("xdr",))
    echo = stub.echo  # bound once, as the e2e workload does

    def call(i: int) -> None:
        if echo(i) != i:
            raise AssertionError(f"echo({i}) came back wrong")

    def close() -> None:
        stub.close()
        container.close()

    return call, close


def _mailbox_publish(capacity: int):
    broker = MessageBroker()
    server = MailboxTcpServer(broker)
    client = MailboxTcpClient(*server.address)
    client.open("q", capacity=capacity, overflow="reject")
    payload = "x" * 32

    def call(_i: int) -> None:
        client.publish("q", payload)

    def close() -> None:
        client.close()
        server.close()

    return call, close


#: shape name -> set-up taking the number of calls the run makes in all
SHAPES = {
    "xdr_echo": lambda _total: _xdr_echo(),
    "mailbox_publish": _mailbox_publish,
}


def measure(shape: str, calls: int) -> dict:
    """Run *shape*: set up under the hook, warm up, count *calls* calls.

    Returns ``{side: {package: {"python", "builtin", "syscall", "syscalls"}}}``
    as per-call figures (``syscalls`` maps each syscall's name to its rate).
    """
    counter = _Counter()
    client_thread = threading.get_ident()
    threading.setprofile(counter.hook)
    sys.setprofile(counter.hook)
    try:
        call, close = SHAPES[shape](WARMUP + calls)
        try:
            for i in range(WARMUP):
                call(i)
            gc.collect()
            counter.active = True
            for i in range(calls):
                call(i)
            counter.active = False
        finally:
            counter.active = False
            close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    report: dict = {}
    for thread, table in counter.tables.items():
        side = report.setdefault("client" if thread == client_thread else "server", {})
        for key, count in table.items():
            row = side.setdefault(key[0], {"python": 0, "builtin": 0, "syscall": 0,
                                           "syscalls": {}})
            if key[1] == "syscall":
                row["syscall"] += count
                row["syscalls"][key[2]] = row["syscalls"].get(key[2], 0) + count
            else:
                row[key[1]] += count
    for side in report.values():
        for row in side.values():
            for field in ("python", "builtin", "syscall"):
                row[field] /= calls
            row["syscalls"] = {k: v / calls for k, v in sorted(row["syscalls"].items())}
    return report


def _print(shape: str, calls: int, report: dict) -> None:
    print(f"{shape}: per call, mean of {calls} calls after {WARMUP} warm-up calls")
    print(f"  {'side':<7}{'package':<12}{'python':>8}{'builtin':>9}{'syscall':>9}")
    for side in ("client", "server"):
        rows = report.get(side, {})
        totals = [0.0, 0.0, 0.0]
        for package in sorted(rows, key=lambda p: (p == "other", p)):
            row = rows[package]
            figures = (row["python"], row["builtin"], row["syscall"])
            totals = [t + f for t, f in zip(totals, figures)]
            print(f"  {side:<7}{package:<12}" + "".join(
                f"{f:>{w}.2f}" for f, w in zip(figures, (8, 9, 9))))
        names: dict = {}
        for row in rows.values():
            for name, rate in row["syscalls"].items():
                names[name] = names.get(name, 0) + rate
        print(f"  {side:<7}{'total':<12}" + "".join(
            f"{f:>{w}.2f}" for f, w in zip(totals, (8, 9, 9)))
            + "   " + ", ".join(f"{n} {r:.2f}" for n, r in sorted(names.items())))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=2000, help="counted calls per shape")
    parser.add_argument("--shape", choices=sorted(SHAPES), action="append",
                        help="shape to run (repeatable; default: all)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    shapes = args.shape or list(SHAPES)
    reports = {shape: measure(shape, args.calls) for shape in shapes}
    if args.json:
        print(json.dumps({"python": list(sys.version_info[:2]), "calls": args.calls,
                          "shapes": reports}, sort_keys=True))
    else:
        for shape in shapes:
            _print(shape, args.calls, reports[shape])
    return 0


if __name__ == "__main__":
    sys.exit(main())
