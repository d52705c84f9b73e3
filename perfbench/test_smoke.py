"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each case starts its own Ray session in a subprocess, the way the
benchmark is run, and takes about 20 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(*args: str, cwd: str = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload,trace", [("tail", 0), ("head", 1)])
def test_metric_names_and_units_match_benchmark_json(spec, workload, trace):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    # a metric that could not be measured fails the run above; none reads 0
    # (the tracing overhead is a difference and may be negative)
    values = {k: v["value"] for k, v in res["metrics"].items()}
    overhead = values.pop("trace.overhead_frac", None)
    assert overhead != 0
    assert all(v > 0 for v in values.values()), values


def test_injected_wrong_result_counts_as_failed():
    res = _result(_bench("--workload", "head", "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--tiny", "--inject-wrong-result"))
    assert res["failed"] == 1 and not res["correct"]
    assert res["failed"] / res["attempted"] > 0  # the error rate


def test_fails_without_the_library(tmp_path, spec):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = _bench("--workload", "tail", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path), env=env)
    assert out.returncode != 0
    assert not out.stdout.strip()
