"""Self-test of the benchmark at tiny sizes (a few seconds per run).

    python3 perfbench/selftest.py

Checks that every workload of BENCHMARK.json, traced and untraced, prints
every metric BENCHMARK.json names, with its unit, and no failed operation;
that the memory guard refuses an oversized workload by name; that the
``Adam.step`` hook reads both gradient layouts; and that the benchmark
fails without a result when the source tree is missing.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types

from run import metric_units
from workloads import SCORE_BUDGET_BYTES, WORKLOADS, check_memory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    raise SystemExit(1)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180, check=False)


def check_run(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        fail(f"{what}: correct={result['correct']} "
             f"failed={result['failed']} attempted={result['attempted']}")
    expected = metric_units(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{what}: metric units {got} != {expected}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, float) or not math.isfinite(value):
            fail(f"{what}: {name} = {value!r}")
    print(f"ok   {what}: {len(got)} metrics, "
          f"{result['attempted']} checked operations")


def check_memory_guard() -> None:
    name = "sig-dense"
    big = dataclasses.replace(
        WORKLOADS[name],
        num_heldout=SCORE_BUDGET_BYTES // (8 * WORKLOADS[name].num_labels) + 1)
    try:
        check_memory(big)
    except SystemExit as exc:
        if name not in str(exc):
            fail(f"memory guard message does not name the workload: {exc}")
    else:
        fail("memory guard accepted an oversized workload")
    for workload in WORKLOADS.values():
        check_memory(workload)
    print("ok   memory guard refuses an oversized workload by name")


def check_step_hook() -> None:
    """The Adam.step hook counts rows of a dense or a (row_ids, rows) gradient."""
    import numpy as np
    from tracer import Tracer
    tracer = Tracer(lambda ok, what: None)
    params = types.SimpleNamespace(embed=np.zeros((16, 2)))
    dense = np.zeros((16, 2))
    dense[[1, 5]] = 1.0
    pair = (np.array([5, 9, 12]), np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 1.0]]))
    for embed in (dense, pair):
        tracer._on_step((None, params, types.SimpleNamespace(embed=embed)),
                        {}, None)
    got = (dict(tracer.counts), np.flatnonzero(tracer._ever_touched["setup"]))
    want = {"optim.embed_rows_touched": [("setup", 2.0), ("setup", 2.0)],
            "optim.embed_rows_updated": [("setup", 16.0), ("setup", 3.0)]}
    if got[0] != want or got[1].tolist() != [1, 5, 12]:
        fail(f"Adam.step hook counted {got}")
    print("ok   Adam.step hook reads dense and (row_ids, rows) gradients")


def check_fails_without_source() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "sig-dense", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark succeeded or printed a result without src/")
    print("ok   fails without a result when src/ is missing")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    check_memory_guard()
    check_step_hook()
    for workload in workloads:
        for trace in (0, 1):
            check_run(workload, trace)
    check_fails_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
