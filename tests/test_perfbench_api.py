"""The benchmark's worker calls package names directly.

``perfbench/worker.py`` calls ``build_index``, ``predict`` (and reads its
per-query pairs), ``label_vectors``, ``query_vectors``, ``read_predictions``
(and reads its dict) and ``metrics_report`` on a list.  Deleting or
reshaping one of them breaks the benchmark; this test runs a tiny
wordy-serve round, untraced and traced, so that it fails tier-1 as well.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_wordy_serve_round_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "wordy-serve", "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result
    assert result["failed"] == 0, result
