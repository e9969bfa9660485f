"""C1 — the data-encoding issue (Section 5).

Claim: "the default BASE64 encoding adopted by SOAP for XSD data types
introduces unacceptable overheads for scientific data both in terms of the
network bandwidth and the encoding/decoding time" [Govindaraju et al.].

Reproduced series: for float64 arrays from 1 K to 1 M elements, bytes on
the wire and encode+decode CPU time for

* XDR (the Harness II binding's codec, vectorised),
* SOAP with base64Binary arrays (SOAP's default),
* SOAP with element-per-item arrays (the fully-textual extreme).

Expected shape: XDR smallest and fastest at every size; SOAP/base64 ≈ 1.33×
the raw bytes and several× slower; SOAP/items an order of magnitude worse.

**C1c — streaming SOAP engine A/B.** The SOAP codec now runs on cached
envelope templates, a direct-to-bytes writer, and an expat pull decoder; the
original tree implementation is retained (``*_tree``) as the
pre-optimization baseline.  The C1c sweep measures the same call+reply
round trip on both engines, asserts the wire bytes are identical, and gates
on a **>= 2x** speedup at the 1 KiB payload size.  Runs under pytest and as
a script (``python benchmarks/bench_c1_encoding.py [--quick]`` — the CI
smoke, exits nonzero if the gate fails).  A full run rewrites
``BENCH_c1.json`` next to this file with the pre (tree) and post (fast)
timings; ``--quick`` writes its record only to ``--out PATH``.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - running as a plain script
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
            for i in range(len(header))
        ]
        print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
        for row in rows:
            print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))

from repro.encoding.registry import XdrMessageCodec
from repro.soap import envelope as soap_envelope
from repro.soap.codec import SoapMessageCodec
from repro.soap.mime import MimeMessageCodec

XDR = XdrMessageCodec()
MIME = MimeMessageCodec()
SOAP_B64 = SoapMessageCodec("base64")
SOAP_ITEMS = SoapMessageCodec("items")

CODECS = [
    ("xdr", XDR),
    ("mime", MIME),
    ("soap-base64", SOAP_B64),
    ("soap-items", SOAP_ITEMS),
]


def _array(n: int) -> np.ndarray:
    return np.random.default_rng(7).random(n)


def _round_trip(codec, array: np.ndarray) -> int:
    """Encode a call + decode it server-side + encode/decode the reply."""
    wire = codec.encode_call("svc", "getResult", (array,))
    _, _, args = codec.decode_call(wire)
    reply = codec.encode_reply(args[0])
    codec.decode_reply(reply)
    return len(wire) + len(reply)


# -- pytest-benchmark rows -------------------------------------------------------

@pytest.mark.parametrize("name,codec", CODECS, ids=[c[0] for c in CODECS])
@pytest.mark.parametrize("n", [1_024, 65_536], ids=["1K", "64K"])
def test_encode_decode_benchmark(benchmark, name, codec, n):
    array = _array(n)
    benchmark(_round_trip, codec, array)


@pytest.mark.parametrize(
    "name,codec", [CODECS[0], CODECS[1], CODECS[2]], ids=["xdr", "mime", "soap-base64"]
)
def test_encode_decode_benchmark_1m(benchmark, name, codec):
    array = _array(1_048_576)  # 8 MB payload; items mode excluded (minutes)
    benchmark(_round_trip, codec, array)


# -- the reported series ------------------------------------------------------------

def test_report_c1_encoding_overheads():
    sizes = [1_024, 16_384, 262_144, 1_048_576]
    rows = []
    measured: dict[tuple[str, int], tuple[float, float]] = {}
    for n in sizes:
        array = _array(n)
        raw = array.nbytes
        for name, codec in CODECS:
            if name == "soap-items" and n > 65_536:
                continue  # minutes of runtime; the trend is established below
            # warm once (envelope templates, dtype caches), then best-of —
            # the sub-ms small-payload times are too noisy for a single
            # cold measurement now that the streaming engine is this close
            # to XDR at small n
            wire_bytes = _round_trip(codec, array)
            repeats = 5 if n <= 65_536 else 1
            elapsed = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                _round_trip(codec, array)
                elapsed = min(elapsed, time.perf_counter() - start)
            measured[(name, n)] = (wire_bytes, elapsed)
            rows.append([
                n, name, raw * 2, wire_bytes,
                f"{wire_bytes / (raw * 2):.2f}x",
                f"{elapsed * 1e3:.2f}ms",
            ])
    print_table(
        "C1: float64 call+reply — bytes on the wire and encode/decode time",
        ["elements", "codec", "raw bytes", "wire bytes", "expansion", "cpu"],
        rows,
    )

    for n in sizes:
        xdr_bytes, xdr_time = measured[("xdr", n)]
        mime_bytes, mime_time = measured[("mime", n)]
        b64_bytes, b64_time = measured[("soap-base64", n)]
        raw = _array(n).nbytes * 2
        # bandwidth claim: base64 expands ~4/3; XDR and MIME attachments
        # stay within a few % of raw (binary parts are unencoded)
        assert xdr_bytes < 1.05 * raw + 1024
        assert mime_bytes < 1.05 * raw + 4096
        assert b64_bytes > 1.30 * raw
        # time claim: XDR is several times faster at every size; the MIME
        # middle ground beats base64 on big arrays (no text expansion)
        assert b64_time > 2 * xdr_time, (n, b64_time, xdr_time)
        if n >= 262_144:
            assert mime_time < b64_time, (n, mime_time, b64_time)
        if ("soap-items", n) in measured:
            items_bytes, items_time = measured[("soap-items", n)]
            assert items_bytes > b64_bytes
            assert items_time > b64_time


# -- C1c: streaming SOAP engine vs the tree baseline --------------------------------

RESULT_PATH = Path(__file__).with_name("BENCH_c1.json")

#: the acceptance gate: >= 2x round-trip speedup at the 1 KiB payload
GATE_ELEMENTS = 128
GATE_SPEEDUP = 2.0

C1C_SIZES = [16, 128, 1_024, 8_192, 65_536]
C1C_QUICK_SIZES = [16, 128, 1_024]


class TreeSoapCodec:
    """The pre-optimization SOAP codec: full XmlElement trees both ways.

    Byte-compatible with :class:`SoapMessageCodec`; exists so the A/B sweep
    measures exactly what the streaming engine replaced.
    """

    def __init__(self, array_mode: str = "base64"):
        self.array_mode = array_mode
        self.content_type = (
            "text/xml" if array_mode == "base64" else f"text/xml; arrays={array_mode}"
        )

    def encode_call(self, target, operation, args):
        return soap_envelope.build_call_envelope_tree(target, operation, args, self.array_mode)

    def decode_call(self, data):
        return soap_envelope.parse_call_envelope_tree(bytes(data))

    def encode_reply(self, result=None, fault=None):
        if fault is not None:
            return soap_envelope.build_fault_envelope_tree("soapenv:Server", fault)
        return soap_envelope.build_reply_envelope_tree(result, array_mode=self.array_mode)

    def decode_reply(self, data):
        return soap_envelope.parse_reply_envelope_tree(bytes(data))


def _best_of(fn, *, repeats: int = 5, reps: int) -> float:
    """Best-of-``repeats`` mean seconds per call over ``reps``-call loops."""
    fn()  # warm caches (templates, namespace memo) outside the clock
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def run_c1c_sweep(sizes: list[int]) -> dict:
    """Tree-vs-fast round trips; returns the machine-readable document."""
    fast = SoapMessageCodec("base64")
    tree = TreeSoapCodec("base64")
    rows = []
    for n in sizes:
        array = _array(n)
        # identical canonical wire bytes — byte-for-byte, in fact
        fast_call = fast.encode_call("svc", "getResult", (array,))
        tree_call = tree.encode_call("svc", "getResult", (array,))
        fast_reply = fast.encode_reply(array)
        tree_reply = tree.encode_reply(array)
        identical = fast_call == tree_call and fast_reply == tree_reply
        reps = max(3, 2_000 // max(1, n // 16))
        tree_s = _best_of(lambda: _round_trip(tree, array), reps=reps)
        fast_s = _best_of(lambda: _round_trip(fast, array), reps=reps)
        rows.append({
            "elements": n,
            "payload_bytes": array.nbytes,
            "tree_us": round(tree_s * 1e6, 1),
            "fast_us": round(fast_s * 1e6, 1),
            "speedup": round(tree_s / fast_s, 2),
            "bytes_identical": identical,
        })
    gate = next(r for r in rows if r["elements"] == GATE_ELEMENTS)
    return {
        "experiment": "C1c streaming SOAP engine (cached templates + expat pull decode)",
        "codec": "soap-base64, float64 call+reply round trip",
        "sizes": rows,
        "gate": {
            "elements": GATE_ELEMENTS,
            "required_speedup": GATE_SPEEDUP,
            "speedup": gate["speedup"],
            "bytes_identical": all(r["bytes_identical"] for r in rows),
        },
    }


def _report_c1c(result: dict) -> None:
    rows = [
        [
            r["elements"], r["payload_bytes"],
            f"{r['tree_us']:.0f}", f"{r['fast_us']:.0f}",
            f"{r['speedup']:.2f}x", r["bytes_identical"],
        ]
        for r in result["sizes"]
    ]
    print_table(
        "C1c: SOAP round trip — tree baseline vs streaming engine",
        ["elements", "payload B", "tree µs", "fast µs", "speedup", "bytes =="],
        rows,
    )


def _write_json(result: dict, quick: bool, out: Path | None = None) -> None:
    """Write *result* to *out* when given.  A full run also rewrites the
    committed ``BENCH_c1.json`` next to this file; a quick one never does."""
    text = json.dumps(result, indent=2) + "\n"
    for path in ([] if quick else [RESULT_PATH]) + ([out] if out is not None else []):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


def test_report_c1c_fastpath():
    result = run_c1c_sweep(C1C_QUICK_SIZES)
    _report_c1c(result)
    _write_json(result, quick=True)
    assert result["gate"]["bytes_identical"], "fast path diverged from tree wire bytes"
    speedup = result["gate"]["speedup"]
    assert speedup >= GATE_SPEEDUP, (
        f"streaming engine is only {speedup:.2f}x the tree baseline at "
        f"{GATE_ELEMENTS} float64 elements (need >= {GATE_SPEEDUP}x)"
    )


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: small payload sizes only (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON record here (the only place --quick writes it)",
    )
    options = parser.parse_args(argv)

    result = run_c1c_sweep(C1C_QUICK_SIZES if options.quick else C1C_SIZES)
    _report_c1c(result)
    _write_json(result, quick=options.quick, out=options.out)

    if not result["gate"]["bytes_identical"]:
        print("FAIL: streaming engine wire bytes differ from the tree baseline")
        return 1
    speedup = result["gate"]["speedup"]
    print(f"\nspeedup at {GATE_ELEMENTS} float64 elements (1 KiB): {speedup:.2f}x")
    if speedup < GATE_SPEEDUP:
        print(f"FAIL: below the {GATE_SPEEDUP}x gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
