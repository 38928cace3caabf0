"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q benchmarks/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("frame-analysis", "valuation-search", "bisim-refine")


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_exits_cleanly_without_failures(workload, trace):
    out = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_SAMPLES
    names = set(result["metrics"])
    if trace == "0":
        assert names == set(harness.END_TO_END)
    else:
        assert not names & set(harness.END_TO_END)
        assert {f"{n}.busy_s" for n in harness.LAYER_CALLS} <= names
        assert set(harness.LAYER_COUNTS) <= names
    for name, metric in result["metrics"].items():
        assert metric["unit"] == harness.unit_of(name)


def test_contract_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {n: harness.unit_of(n) for n in harness.layer_names()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_reproduces_the_recorded_digests(workload):
    """Inputs and results match `baseline.json`, so that a change in the
    library's behaviour shows even where every verdict still passes."""
    baseline = json.loads((BENCH / "baseline.json").read_text())
    recorded = baseline["workloads"][workload]["tiny_digests"]
    for _ in range(2):
        out = run_cli("--workload", workload, "--seed", str(recorded["seed"]),
                      "--seconds", "0.1", "--trace", "0", "--tiny")
        header = out.stdout.splitlines()[0]
        digests = re.search(r"\(digest (\w+)\), results digest (\w+)", header)
        assert digests.groups() == (recorded["inputs"], recorded["results"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    first = harness.run(workload, 11, 0.1, tiny=True)
    other = harness.run(workload, 12, 0.1, tiny=True)
    assert first["inputs_digest"] != other["inputs_digest"]
    assert first["results_digest"] != other["results_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_traced_call_is_a_reported_layer(workload):
    report = harness.run(workload, 5, 0.1, trace=True, tiny=True)
    names = {span[0] for tracer in report["tracers"].values()
             for span in tracer.spans}
    assert names - {Tracer.QUERY} <= set(harness.LAYER_CALLS)
    assert 0 < report["metrics"]["trace.busy_share"] <= 1


def test_times_are_scaled_by_the_machine_gauge():
    metrics = harness.end_to_end([0.001, 0.002, 0.003], 1.0, 2.0)
    assert metrics["query_p50_ms"] == pytest.approx(4.0)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["throughput_qps"] == pytest.approx(250.0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["query", 0.0, 10.0, None, 0],
                    ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 6.0, 0, 0],
                    ["c", 2.0, 3.0, 1, 0]]
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]


def test_run_fails_without_the_library(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    out = run_cli("--workload", "bisim-refine", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
