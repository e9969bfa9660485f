"""Run the end-to-end benchmark: ``python3 benchmarks/e2e/run.py``.

With ``--workload`` and ``--trace`` this is the driver's contract (see
BENCHMARK.json): one workload, one JSON object as the last line of output.
Without them it runs every workload, untraced and traced, and prints a
manifest and every metric by name; ``--out`` keeps that as JSON for
``compare``.  ``--selfcheck`` shows that the result checks catch failures.

Each workload runs in subprocesses of its own, pinned to one CPU, with
every ``REPRO_*`` variable cleared.  An untraced run is split over several
subprocesses, one after the other, and their rounds are pooled: how fast a
process moves 128 KiB frames is settled when it starts (xdr_array reads
335 us in one process and 395 us in the next, steady within each), so one
process per run would make the run a draw between those.  Set-up is timed
in each, from the moment it is spawned to its first timed op, and the
median is reported.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):  # run as a script: make ``benchmarks`` and ``repro`` importable
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: subprocesses an untraced run is split over
PROCESSES = 5
#: glibc gives each thread an arena of its own, and which arena a 128 KiB
#: array lands in moved xdr_array's median between 335 and 415 us from one
#: process to the next; with one arena most processes read 360 to 375
MALLOC_ARENA_MAX = "1"
#: in a traced run, the share of --seconds spent on untraced real-path rounds
#: (for the tail percentiles and the tracing overhead)
TRACED_RUN_UNTRACED_SHARE = 0.4


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of *values*."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


# -- the workload subprocess -------------------------------------------------


def pin_to_one_cpu():
    """Pin this process to one CPU; returns the affinity it had before, or
    None where pinning is not possible."""
    try:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(home)})
    except (AttributeError, OSError):
        return None
    return home


def flaky_service(mode: str, every: int = 10):
    """A BenchService whose echo goes wrong on every *every*-th call."""
    from benchmarks.e2e.workloads import BenchService

    class FlakyService(BenchService):
        calls = 0

        def echo(self, value: int) -> int:
            self.calls += 1
            if self.calls % every == 0:
                if mode == "raise":
                    raise RuntimeError("injected fault")
                return value ^ 1
            return value

    return FlakyService


def child(args) -> dict:
    home_cpus = pin_to_one_cpu()
    leftover = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leftover:
        raise SystemExit(f"REPRO_* variables reached the workload process: {leftover}")
    t0 = time.perf_counter()
    from repro.obs import trace as obs_trace

    from benchmarks.e2e import layers, workloads

    import_s = time.perf_counter() - t0
    if obs_trace.ENABLED:
        raise SystemExit("repro.obs.trace is already enabled; refusing to measure")

    workload = workloads.make(args.workload, args.seed, args.scale)
    if args.inject:
        workload.service = flaky_service(args.inject)
    workload.setup()
    t1 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t1
    setup_s = time.monotonic() - args.spawned_at
    result = {"pinned": home_cpus is not None, "setup_s": setup_s}
    try:
        if args.trace:
            workload.parts["setup.import_s"] = import_s
            workload.parts["setup.warmup_s"] = warmup_s
            figures, attempted, failed = layers.measure(
                workload, args.seconds * TRACED_RUN_UNTRACED_SHARE, home_cpus
            )
            result["metrics"] = {name: {"value": value} for name, value in figures.items()}
        else:
            rounds = workloads.timed_rounds(workload, args.seconds)
            attempted = sum(r.attempted for r in rounds)
            failed = sum(r.failed for r in rounds)
            result["rounds"] = {
                "op_p50_us": [statistics.median(r.latencies_ns) / 1e3 for r in rounds],
                "ops_per_s": [r.ops_per_s for r in rounds],
                "cpu_us_per_op": [r.cpu_us_per_op for r in rounds],
            }
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(attempted=attempted, failed=failed)
        return result
    finally:
        workload.close()


# -- the parent --------------------------------------------------------------


def clean_environment() -> tuple[dict, dict]:
    """The environment for workload processes, and the REPRO_* settings
    taken out of it."""
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENA_MAX
    return env, cleared


def spawn(name: str, seed: int, seconds: float, trace: bool, scale: float,
          inject: str = "") -> dict:
    """Run one workload subprocess and return what it reported."""
    env, _ = clean_environment()
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--scale", str(scale), "--spawned-at", repr(time.monotonic()),
    ]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 processes: int = PROCESSES, inject: str = "") -> dict:
    """One run of one workload: every declared metric of the requested kind.

    Returns ``{"workload", "trace", "pinned", "attempted", "failed",
    "metrics": {name: {"value", "unit", ...}}}``.
    """
    definition = load_definition()
    if trace:
        declared = definition["per_layer"]
        parts = [spawn(name, seed, seconds, True, scale, inject)]
        metrics = parts[0]["metrics"]
        unknown = set(metrics) - {m["name"] for m in declared}
        if unknown:
            raise SystemExit(f"{name} reported undeclared metrics: {sorted(unknown)}")
        for metric in declared:  # a layer off this workload's path did no work
            metrics.setdefault(metric["name"], {"value": 0.0})
    else:
        declared = definition["end_to_end"]
        parts = [
            spawn(name, seed, seconds / processes, False, scale, inject)
            for _ in range(processes)
        ]
        metrics = {
            metric: summary([v for part in parts for v in part["rounds"][metric]])
            for metric in parts[0]["rounds"]
        }
        metrics["peak_rss_mb"] = summary([part["peak_rss_mb"] for part in parts])
        metrics["setup_s"] = summary([part["setup_s"] for part in parts])
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"{name}: metrics {sorted(metrics)} are not the declared {sorted(units)}")
    for metric_name, metric in metrics.items():
        metric["unit"] = units[metric_name]
    return {
        "workload": name, "trace": trace, "pinned": parts[0]["pinned"],
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }


def manifest(seed: int, seconds: float, cleared: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "seed": seed,
        "seconds": seconds,
        "repro_env_cleared": cleared,
        "malloc_arena_max": MALLOC_ARENA_MAX,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "status": "running",
    }


def report(names: list[str], traces: list[bool], seed: int, seconds: float, out: str) -> int:
    """Run *names* and print a manifest and every metric by name."""
    header = manifest(seed, seconds, clean_environment()[1])
    print("manifest " + json.dumps(header))
    rows = []
    failed = 0
    for name in names:
        for trace in traces:
            run = run_workload(name, seed, seconds, trace)
            if not run["pinned"]:
                print(f"{name}: pinned: false (sched_setaffinity is unavailable here)")
            header["pinned"] = run["pinned"]
            failed += run["failed"]
            share = {"value": run["failed"] / run["attempted"], "unit": "share"}
            for metric, entry in [*run["metrics"].items(), ("failed_share", share)]:
                rows.append({"workload": name, "traced": trace, "metric": metric, **entry})
                spread = (
                    f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
                    if "q1" in entry else ""
                )
                print(f"{name:16} {metric:40} {entry['value']:14.6g} {entry['unit']:7}{spread}")
    header["status"] = "failed" if failed else "ok"
    print("status " + header["status"])
    if out:
        Path(out).write_text(json.dumps({"manifest": header, "rows": rows}, indent=1) + "\n")
    return 1 if failed else 0


def selfcheck(seed: int) -> int:
    """Inject failures into xdr_echo and see that they are counted."""
    status = 0
    for mode in ("raise", "wrong"):
        run = run_workload("xdr_echo", seed, 1.0, False, scale=0.4, processes=1,
                           inject=mode)
        share = run["failed"] / run["attempted"]
        ok = abs(share - 0.1) < 0.01
        print(f"selfcheck {mode:5}: failed_share {share:.4f} (want 0.1) {'ok' if ok else 'WRONG'}")
        status |= not ok
    return status


def main(argv=None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default="", help="write the full report here as JSON")
    parser.add_argument("--selfcheck", action="store_true")
    for flag, kind in (("--scale", float), ("--spawned-at", float), ("--inject", str)):
        parser.add_argument(flag, type=kind, help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload and args.trace is not None and not args.out:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in run["metrics"].items()
            },
        }))
        return 0
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    return report([args.workload] if args.workload else names, traces, args.seed,
                  args.seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
