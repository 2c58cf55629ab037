"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each run must pass its checks, fail no op, and emit every end-to-end
metric of BENCHMARK.json (``--trace 0``) or every per-layer metric
(``--trace 1``) with its unit; the layers a workload must cross have to
record work.  Seed 1 was used while the benchmark was written; seed 8191
was not.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import SPAN_FIELDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(metrics: dict, spec: list, prefix: str = "") -> None:
    for entry in spec:
        got = metrics[prefix + entry["name"]]
        assert got["unit"] == entry["unit"], entry["name"]
        assert isinstance(got["value"], (int, float)), entry["name"]


def assert_layers_worked(metrics: dict, workload: str, prefix: str = "") -> None:
    for span in WORKLOADS[workload].must_cross:
        for field in SPAN_FIELDS.get(span, ()):
            if field != "self_ms":
                assert metrics[f"{prefix}{span}.{field}"]["value"] > 0, (workload, span, field)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_on_an_unused_seed(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "8191", "--seconds", "1",
                             "--trace", str(trace), "--tiny"))
    if trace:
        assert_metrics(result["metrics"], SPEC["per_layer"])
        assert_layers_worked(result["metrics"], workload)
    else:
        assert_metrics(result["metrics"], SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_runs_every_workload(trace):
    result = result_of(bench("--workload", "all", "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny"))
    for workload in WORKLOADS:
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert_metrics(result["metrics"], spec, prefix=workload + ".")
        if trace:
            assert_layers_worked(result["metrics"], workload, prefix=workload + ".")


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "readme-epr", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
