"""The paired-seed summary of ``tools/quality.py``."""

import importlib.util
import os

import numpy as np

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "quality.py")
_spec = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)


def _runs(values_by_seed):
    """Runs whose every mode and metric read the seed's value."""
    return [{"seed": seed, "metrics": {mode: dict.fromkeys(quality.METRICS, v)
                                       for mode in quality.MODES}}
            for seed, v in values_by_seed.items()]


def test_seed_list_reads_ranges_and_lists():
    assert quality._seed_list("0-3") == [0, 1, 2, 3]
    assert quality._seed_list("5,1-2,9") == [5, 1, 2, 9]


def test_summary_pairs_runs_by_seed():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=7)
    b = a + rng.normal(scale=0.01, size=7)
    # side b lists its runs in another order: pairing goes by seed
    rows = quality.summarize(_runs(dict(enumerate(a))),
                             _runs(dict(reversed(list(enumerate(b))))))
    assert len(rows) == len(quality.MODES) * len(quality.METRICS)
    diff = b - a
    for row in rows:
        assert np.isclose(row["median_a"], np.median(a))
        assert np.isclose(row["median_b"], np.median(b))
        assert np.isclose(row["median_diff"], np.median(diff))
        assert row["b_above"] == np.sum(diff > 0)
        assert row["b_below"] == np.sum(diff < 0)
        q1, q3 = np.percentile(a, [25, 75])
        assert np.isclose(row["iqr_a"], q3 - q1)
        assert row["inside_spread_a"] == (abs(np.median(diff)) <= q3 - q1)
    assert "| de | P@1 |" in quality.format_table(rows)


def test_heldout_split_is_the_benchmarks_evaluated_queries(monkeypatch,
                                                           tmp_path):
    monkeypatch.syspath_prepend(quality.PERFBENCH)
    from run import generate
    from workloads import WORKLOADS

    workload = WORKLOADS["sig-dense"].tiny()
    quality._write_inputs(workload, str(tmp_path / "cut"))
    generate(workload, quality.HELDOUT_SEED, str(tmp_path / "full"))
    cut, full = ((tmp_path / d / "heldout.jsonl").read_text().splitlines()
                 for d in ("cut", "full"))
    assert len(cut) == workload.num_eval < len(full)
    assert cut == full[:workload.num_eval]
