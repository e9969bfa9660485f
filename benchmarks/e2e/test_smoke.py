"""Every workload at 2% of its op count: the names that come out are the
names BENCHMARK.json declares, and nothing fails.  Run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``."""

import time

import pytest

from benchmarks.e2e import run

DEFINITION = run.load_definition()
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]
STARTED = time.monotonic()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_names_are_the_declared_names(workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.1, trace=trace, scale=0.02,
                              processes=1)
    declared = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {m["unit"] for m in result["metrics"].values()} <= {m["unit"] for m in declared}
    assert result["attempted"] > 0 and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_the_whole_smoke_set_is_quick():
    # runs last in this file; the budget covers all fourteen runs above
    assert time.monotonic() - STARTED < 20.0


def test_declared_names_are_the_issue_names():
    assert WORKLOADS == ["xdr_echo", "xdr_array", "soap_array", "xdr_overlap",
                         "xdr_echo_traced", "mailbox_push", "dvm_mixed"]
    assert [m["name"] for m in DEFINITION["end_to_end"]] == [
        "op_p50_us", "ops_per_s", "cpu_us_per_op", "peak_rss_mb", "setup_s"]
    assert len(DEFINITION["per_layer"]) <= 128
