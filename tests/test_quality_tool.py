"""The paired-seed summary and the side processes of ``tools/quality.py``."""

import importlib.util
import os

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "quality.py")
_spec = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)


def _runs(values_by_seed):
    """Runs whose every mode and metric read the seed's value on all
    queries, its double on seen and its half on unseen queries."""
    def by_mode(metrics, v):
        return {mode: dict.fromkeys(metrics, v) for mode in quality.MODES}

    return [{"seed": seed, "metrics": by_mode(quality.METRICS, v),
             "regimes": {"seen": by_mode(quality.REGIME_METRICS, 2 * v),
                         "unseen": by_mode(quality.REGIME_METRICS, v / 2)}}
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
    assert [(r["subset"], r["mode"], r["metric"]) for r in rows] == [
        (subset, mode, metric)
        for subset, metrics in (("all", ("P@1", "P@5", "PSP@5")),
                                ("seen", ("P@1", "PSP@5")),
                                ("unseen", ("P@1", "PSP@5")))
        for mode in quality.MODES for metric in metrics]
    scale = {"all": 1.0, "seen": 2.0, "unseen": 0.5}
    for row in rows:
        sa, sb = scale[row["subset"]] * a, scale[row["subset"]] * b
        diff = sb - sa
        assert np.isclose(row["median_a"], np.median(sa))
        assert np.isclose(row["median_b"], np.median(sb))
        assert np.isclose(row["median_diff"], np.median(diff))
        assert row["b_above"] == np.sum(diff > 0)
        assert row["b_below"] == np.sum(diff < 0)
        q1, q3 = np.percentile(sa, [25, 75])
        assert np.isclose(row["iqr_a"], q3 - q1)
        assert row["inside_spread_a"] == (abs(np.median(diff)) <= q3 - q1)
    table = quality.format_table(rows)
    assert "| all | de | P@1 |" in table and "| unseen | clf | PSP@5 |" in table


def test_label_regimes_split_by_training_positives():
    freq = np.array([3, 0, 1, 0])          # labels 1 and 3 unseen in training
    truth = [np.array([0]), np.array([1, 2]), np.array([1]),
             np.array([], dtype=np.int64), np.array([3, 1]), np.array([2, 0])]
    split = quality.label_regimes(freq, truth)
    # one seen label is enough; no positive at all is no seen positive
    assert split["seen"].tolist() == [0, 1, 5]
    assert split["unseen"].tolist() == [2, 3, 4]


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


def test_a_bad_override_stops_both_sides(capfd, monkeypatch):
    started = []
    popen = quality.subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(quality.subprocess, "Popen", recording_popen)
    # side a alone would train for half a minute; side b's key is misspelt
    with pytest.raises(SystemExit, match="side b exited 2"):
        quality.main(["--workload", "sig-dense", "--seeds", "0-99",
                      "--set-b", "positive_reductio=sum"])
    assert "side b: unknown config key 'positive_reductio'" in \
        capfd.readouterr().err
    side_a, side_b = started
    assert side_b.returncode == 2
    assert side_a.returncode < 0            # stopped by a signal
