"""Self-check of the benchmark, one short run per case:

    python3 -m pytest bench/tests -q

Each workload runs for one round.  The checks: every metric that
BENCHMARK.json names is emitted with its unit, no op fails at the seed, a
deliberately corrupted reference value is caught and counted as a failure,
and without the fermicov sources the benchmark exits nonzero and prints no
result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_no_op_fails(workload, trace, section):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failure(workload):
    result = result_of(bench("--workload", workload, "--trace", "0", "--corrupt-reference"))
    assert result["failed"] == 1
    assert not result["correct"]


def test_refuses_to_run_without_the_sources():
    bare = ROOT / "bench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
