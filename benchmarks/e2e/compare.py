"""Compare two full reports: ``python3 benchmarks/e2e/compare.py A.json B.json``.

A and B are files written by ``run.py --out``; A is the parent, B the change.
For every workload and end-to-end metric the bound in BENCHMARK.json decides:

* ``unresolved``  the quartile spread over rounds, on either side, is wider
  than the bound, so a difference of that size cannot be told from noise;
* ``worse``  B's median is worse than A's by more than the bound;
* ``better``  B's median is better than A's by more than the bound;
* ``same``  otherwise.

``failed_share`` may not rise at all.  Counts that are exact on a seed
(messages and bytes per op on the sim fabric, payload bytes on the wire)
must be equal.  Exits non-zero on any ``worse`` or unequal count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

EXACT_SUFFIXES = (".msgs_per_op", ".bytes_per_op")
EXACT_NAMES = ("transport.request_bytes", "transport.reply_bytes")


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES) or metric in EXACT_NAMES


def rows_by_key(report: dict) -> dict[tuple[str, str, bool], dict]:
    return {(row["workload"], row["metric"], row["traced"]): row for row in report["rows"]}


def spread(row: dict) -> float:
    """Distance between the quartiles over rounds, as a share of the median."""
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(a: dict, b: dict, definition: dict) -> tuple[list[tuple], int]:
    """Rows of (workload, metric, A, B, verdict), and how many of them fail."""
    rows_a, rows_b = rows_by_key(a), rows_by_key(b)
    gated = {m["name"]: m for m in definition["end_to_end"]}
    lines, bad = [], 0
    for key in rows_a.keys() & rows_b.keys():
        workload, metric, traced = key
        va, vb = rows_a[key], rows_b[key]
        if metric in gated:
            result = verdict(va, vb, gated[metric]["better"], gated[metric]["bound"])
        elif metric == "failed_share":
            result = "worse" if vb["value"] > va["value"] else "same"
        elif is_exact(metric) and (va["value"] or vb["value"]):
            result = "same" if va["value"] == vb["value"] else "unequal"
        else:
            continue
        bad += result in ("worse", "unequal")
        label = f"{metric} (traced run)" if traced and metric == "failed_share" else metric
        lines.append((workload, label, va["value"], vb["value"], result))
    order = [w["name"] for w in definition["workloads"]]
    lines.sort(key=lambda line: (order.index(line[0]), line[1]))
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a["manifest"]["seed"] != b["manifest"]["seed"]:
        print("note: the reports were made from different seeds; exact counts will differ")
    lines, bad = compare(a, b, definition)
    for workload, metric, va, vb, result in lines:
        print(f"{workload:16} {metric:36} {va:14.6g} {vb:14.6g}  {result}")
    unresolved = sum(line[4] == "unresolved" for line in lines)
    print(f"{bad} worse or unequal, {unresolved} unresolved, of {len(lines)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
