"""Smoke test of ``tools/rss_phases.py`` on the tiny self-test workload."""

import os
import subprocess
import sys

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "rss_phases.py")
PHASES = ["setup", "train", "load", "index", "predict", "write", "evaluate",
          "read"]


def test_prints_current_and_peak_rss_after_each_phase():
    proc = subprocess.run([sys.executable, _PATH, "--workload", "sig-dense",
                           "--tiny"], capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["phase", "rss_mb", "peak_mb"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == PHASES
    peaks = [float(row[2]) for row in rows]
    assert all(float(row[1]) > 0 for row in rows)
    # the peak is a high-water mark
    assert peaks == sorted(peaks) and peaks[0] > 0
