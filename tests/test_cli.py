"""End-to-end command-line tests, run in-process through ``main``."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import write_text_dataset
from xmclite import METRICS_SCHEMA, read_predictions
from xmclite.batching import BATCH_STATS_HEADER
from xmclite.cli import main

# the package's ``train`` attribute is the function, not the module
train_module = importlib.import_module("xmclite.train")

SMALL_DIMS = ["--hash-dim", "1024", "--encoder-dim", "16",
              "--search-dim", "8"]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained checkpoint plus predictions over a small on-disk dataset."""
    root = tmp_path_factory.mktemp("cli")
    queries, labels = write_text_dataset(root, 32, 8, seed=3)
    out = root / "run"
    common = ["--queries-path", queries, "--labels-path", labels] + SMALL_DIMS
    rc, train_out = _run(["train"] + common + [
        "--epochs", "3", "--batch-size", "8", "--refresh-interval", "2",
        "--positives-per-query", "2", "--hard-negatives-per-query", "2",
        "--seed", "5", "--out-dir", str(out)])
    assert rc == 0
    ckpt = str(out / "checkpoint.bin")
    preds = str(out / "predictions.tsv")
    rc, predict_out = _run(["predict"] + common + [
        "--checkpoint-path", ckpt, "--top-k", "3",
        "--predictions-path", preds])
    assert rc == 0
    return dict(queries=queries, labels=labels, out=out, common=common,
                ckpt=ckpt, preds=preds, train_out=train_out,
                predict_out=predict_out)


def test_train_writes_artifacts(workspace):
    out = workspace["out"]
    assert (out / "checkpoint.bin").exists()
    assert (out / "checkpoint.bin.json").exists()
    log_lines = (out / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 3
    assert all(json.loads(line)["epoch"] == e
               for e, line in enumerate(log_lines))
    first = workspace["train_out"].splitlines()[0]
    assert first.startswith("trained 3 epochs in")
    assert "final loss" in first


def test_predict_writes_k_rows_per_query(workspace):
    by_query = read_predictions(workspace["preds"])
    assert sorted(by_query) == list(range(32))
    assert all(len(rows) == 3 for rows in by_query.values())
    assert "wrote 96 rows for 32 queries" in workspace["predict_out"]


def test_eval_reports_schema_valid_metrics(workspace, tmp_path):
    metrics_path = str(tmp_path / "metrics.json")
    rc, out = _run(["eval", "--queries-path", workspace["queries"],
                    "--labels-path", workspace["labels"],
                    "--predictions-path", workspace["preds"],
                    "--metrics-path", metrics_path, "--eval-k", "1,3"])
    assert rc == 0
    with open(metrics_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    jsonschema.validate(report, METRICS_SCHEMA)
    assert set(report) == {"P@1", "P@3", "PSP@1", "PSP@3"}
    assert json.loads(out.strip()) == report


def test_perfect_predictions_score_one(tmp_path):
    queries = tmp_path / "q.jsonl"
    labels = tmp_path / "labels.txt"
    labels.write_text("sig0\nsig1\nsig2\n")
    with open(queries, "w") as fh:
        for i in range(3):
            fh.write(json.dumps({"text": f"sig{i} pad", "labels": [i]}) + "\n")
    preds = tmp_path / "p.tsv"
    preds.write_text("".join(f"{i}\t1\t{i}\t1.0\n" for i in range(3)))
    metrics_path = str(tmp_path / "m.json")
    rc, out = _run(["eval", "--queries-path", str(queries),
                    "--labels-path", str(labels),
                    "--predictions-path", str(preds),
                    "--metrics-path", metrics_path, "--eval-k", "1"])
    assert rc == 0
    report = json.loads(out)
    assert report["P@1"] == 1.0
    assert report["PSP@1"] == 1.0


def test_eval_rejects_out_of_range_query_ids(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    labels = tmp_path / "labels.txt"
    labels.write_text("sig0\n")
    queries.write_text(json.dumps({"text": "sig0", "labels": [0]}) + "\n")
    preds = tmp_path / "p.tsv"
    preds.write_text("99\t1\t0\t1.0\n")
    rc, _ = _run(["eval", "--queries-path", str(queries),
                  "--labels-path", str(labels),
                  "--predictions-path", str(preds)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "query id 99" in err


def test_missing_required_key(capsys):
    rc, _ = _run(["train", "--labels-path", "somewhere.txt"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "queries_path is required" in err


def test_unknown_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob=1\n")
    rc, _ = _run(["train", "--config", str(cfg)])
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_bad_flag_value(workspace, capsys):
    rc, _ = _run(["train"] + workspace["common"] + ["--epochs", "three"])
    assert rc == 2
    assert "epochs" in capsys.readouterr().err


def test_unknown_search_backend_is_rejected(workspace, capsys):
    rc, _ = _run(["predict"] + workspace["common"] + [
        "--checkpoint-path", workspace["ckpt"], "--search", "exakt",
        "--predictions-path", str(workspace["out"] / "exakt.tsv")])
    assert rc == 2
    assert "search" in capsys.readouterr().err
    assert not (workspace["out"] / "exakt.tsv").exists()


@pytest.mark.parametrize("argv", [["--search", "16"], ["--mining", "exact"],
                                  ["--data-format", "xmc-sparse"]])
def test_removed_search_and_mining_flags_are_rejected(workspace, capsys, argv):
    # "--search" must not be taken as an abbreviation of "--search-dim"
    rc, _ = _run(["predict"] + workspace["common"] + [
        "--checkpoint-path", workspace["ckpt"],
        "--predictions-path", str(workspace["out"] / "removed.tsv")] + argv)
    assert rc == 2
    assert "unrecognized arguments: " + argv[0] in capsys.readouterr().err
    assert not (workspace["out"] / "removed.tsv").exists()


@pytest.mark.parametrize("key", ["search", "mining", "data_format"])
def test_removed_search_and_mining_keys_are_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=exact\n")
    rc, _ = _run(["train", "--config", str(cfg)])
    assert rc == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_corrupt_checkpoint_is_a_usage_error(workspace, tmp_path, capsys):
    blob = Path(workspace["ckpt"]).read_bytes()
    for size in (20, 47, len(blob) - 1):
        path = tmp_path / f"cut{size}.bin"
        path.write_bytes(blob[:size])
        rc, _ = _run(["predict"] + workspace["common"] + [
            "--checkpoint-path", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
    path = tmp_path / "whole.bin"
    path.write_bytes(blob)
    (tmp_path / "whole.bin.json").write_text("{not json")
    rc, _ = _run(["predict"] + workspace["common"] + [
        "--checkpoint-path", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "sidecar" in capsys.readouterr().err


def test_nonexistent_queries_file(tmp_path, capsys):
    rc, _ = _run(["train", "--queries-path", str(tmp_path / "nope.jsonl"),
                  "--labels-path", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_query_without_ascii_token_is_rejected_at_load(tmp_path, capsys):
    queries, labels = write_text_dataset(tmp_path, 32, 4, seed=2)
    with open(queries, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[2] = json.dumps({"text": "日本語", "labels": [0]}, ensure_ascii=False)
    with open(queries, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "run"
    rc, _ = _run(["train", "--queries-path", queries, "--labels-path", labels,
                  "--out-dir", str(out)] + SMALL_DIMS)
    assert rc == 2
    err = capsys.readouterr().err
    assert "no ASCII letter or digit" in err and f"{queries}, line 3" in err
    assert not out.exists()  # rejected before training started


@pytest.mark.parametrize("command", ["train", "simulate-batches"])
def test_empty_query_file_is_a_usage_error(tmp_path, capsys, command):
    queries, labels = write_text_dataset(tmp_path, 4, 4, seed=0)
    open(queries, "w", encoding="utf-8").close()
    rc, _ = _run([command, "--queries-path", queries, "--labels-path", labels,
                  "--out-dir", str(tmp_path / "run")] + SMALL_DIMS)
    assert rc == 2
    assert "dataset has no instances or no labels" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    rc, _ = _run(["train", "--frobnicate", "1"])
    assert rc == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert _run(["--help"])[0] == 0
    assert _run(["train", "--help"])[0] == 0
    capsys.readouterr()


def test_divergent_training_reports_abort(tmp_path, capsys):
    queries, labels = write_text_dataset(tmp_path, 16, 4, seed=1)
    with np.errstate(all="ignore"):
        rc, _ = _run(["train", "--queries-path", queries,
                      "--labels-path", labels, "--out-dir",
                      str(tmp_path / "run")] + SMALL_DIMS + [
                      "--epochs", "2", "--batch-size", "8",
                      "--lr-encoder", "1e200", "--lr-heads", "1e150"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("aborted:")


def test_flag_overrides_config_file(tmp_path):
    queries, labels = write_text_dataset(tmp_path, 16, 4, seed=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# training setup\n"
        "epochs=3\n"
        "batch_size=8\n"
        "hash_dim=1024\n"
        "encoder_dim=16\n"
        "search_dim=8\n"
        "\n"
        f"out_dir={tmp_path / 'run'}\n")
    rc, _ = _run(["train", "--config", str(cfg), "--queries-path", queries,
                  "--labels-path", labels, "--epochs", "1"])
    assert rc == 0
    log = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
    assert len(log) == 1  # the flag beat the file's epochs=3


@pytest.mark.parametrize("label_id", [99999, 128, -1])
def test_eval_rejects_out_of_range_label_ids(tmp_path, capsys, label_id):
    queries, labels = write_text_dataset(tmp_path, 4, 128, seed=1)
    preds = tmp_path / "p.tsv"
    preds.write_text(f"0\t1\t5\t2.0\n2\t1\t7\t1.0\n2\t2\t{label_id}\t0.5\n")
    metrics_path = tmp_path / "m.json"
    rc, out = _run(["eval", "--queries-path", queries, "--labels-path", labels,
                    "--predictions-path", str(preds),
                    "--metrics-path", str(metrics_path)])
    assert rc == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(preds) in err
    assert "query id 2" in err and f"label id {label_id}" in err
    assert not metrics_path.exists()


def test_checkpoint_dim_conflict(workspace, capsys):
    rc, _ = _run(["predict", "--queries-path", workspace["queries"],
                  "--labels-path", workspace["labels"],
                  "--checkpoint-path", workspace["ckpt"],
                  "--hash-dim", "2048"])
    assert rc == 2
    assert "conflicts with checkpoint" in capsys.readouterr().err


def test_simulate_batches_with_checkpoint(workspace):
    rc, out = _run(["simulate-batches"] + workspace["common"] + [
        "--checkpoint-path", workspace["ckpt"],
        "--out-dir", str(workspace["out"]),
        "--sim-positive-caps", "2,3", "--sim-negative-caps", "0,2", "--batch-size", "8"])
    assert rc == 0
    csv_path = workspace["out"] / "batch_stats.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == BATCH_STATS_HEADER
    assert len(lines) == 1 + 4  # two positive caps x two negative caps
    width = len(BATCH_STATS_HEADER.split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])
    assert out == csv_path.read_text()


def test_simulate_batches_without_checkpoint(tmp_path):
    queries, labels = write_text_dataset(tmp_path, 16, 4, seed=4)
    rc, out = _run(["simulate-batches", "--queries-path", queries,
                    "--labels-path", labels, "--out-dir",
                    str(tmp_path / "run")] + SMALL_DIMS + [
                    "--batch-size", "8"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == BATCH_STATS_HEADER
    assert len(lines) == 2  # default single cap combination


def test_simulate_batches_clusters_once_and_mines_at_most_once(
        workspace, tmp_path, monkeypatch):
    # simulate-batches refreshes through train.refresh, which looks these
    # names up in the train module
    calls = {"cluster_queries": 0, "mine_hard_negatives": 0, "forward": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counted(train_module, name)
    rc, out = _run(["simulate-batches"] + workspace["common"] + [
        "--checkpoint-path", workspace["ckpt"], "--out-dir", str(tmp_path),
        "--sim-positive-caps", "1,2,3", "--sim-negative-caps", "0,2",
        "--batch-size", "8"])
    assert rc == 0 and len(out.splitlines()) == 1 + 6
    # one forward over the queries, one over the labels for the one cache
    assert calls == {"cluster_queries": 1, "mine_hard_negatives": 1,
                     "forward": 2}
    # With refresh_interval 2, negative caps 2 and 3 resolve to cache sizes
    # 4 and 6, with cache_size 5 both to 5: either way one cache is mined,
    # at the largest size, and the smaller size takes each list's prefix.
    # With every negative cap 0 nothing is mined and no label is embedded.
    for caps, extra, mined in (("2,3,0", ["--refresh-interval", "2"], 1),
                               ("2,3,0", ["--cache-size", "5"], 1),
                               ("0,0", [], 0)):
        calls.update(cluster_queries=0, mine_hard_negatives=0, forward=0)
        rc, _ = _run(["simulate-batches"] + workspace["common"] + [
            "--checkpoint-path", workspace["ckpt"], "--out-dir", str(tmp_path),
            "--sim-positive-caps", "1,2", "--sim-negative-caps", caps,
            "--batch-size", "8"] + extra)
        assert rc == 0
        assert calls == {"cluster_queries": 1, "mine_hard_negatives": mined,
                         "forward": 1 + (mined > 0)}


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as behind ``| head -1``: every write
    raises, and its descriptor is the one given."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_without_a_traceback(workspace, tmp_path,
                                                   capsys):
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh, contextlib.redirect_stdout(
            _ClosedPipe(fh.fileno())):
        rc = main(["simulate-batches"] + workspace["common"] + [
            "--out-dir", str(tmp_path), "--batch-size", "8"])
        # the interpreter's final flush of stdout now goes to devnull
        os.write(fh.fileno(), b"flushed at exit")
    assert rc == 1
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""
    lines = (tmp_path / "batch_stats.csv").read_text().splitlines()
    assert lines[0] == BATCH_STATS_HEADER


@pytest.mark.parametrize("argv,key", [
    (["simulate-batches", "--batch-size", "0"], "batch_size"),
    (["simulate-batches", "--sim-negative-caps", "-1"], "sim_negative_caps"),
    (["eval", "--propensity-b", "-5"], "propensity_b"),
])
def test_invalid_values_are_rejected_by_name(workspace, tmp_path, capsys,
                                             argv, key):
    rc, out = _run(argv[:1] + workspace["common"] + [
        "--predictions-path", workspace["preds"],
        "--out-dir", str(tmp_path)] + argv[1:])
    assert rc == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not any(tmp_path.iterdir())   # rejected before the command ran


def test_propensity_settings_reach_in_training_metrics(tmp_path):
    queries, labels = write_text_dataset(tmp_path, 16, 4, seed=2)
    metrics = {}
    for name, extra in (("default", []),
                        ("custom", ["--propensity-a", "5",
                                    "--propensity-b", "9"])):
        out = tmp_path / name
        rc, _ = _run(["train", "--queries-path", queries, "--labels-path",
                      labels, "--out-dir", str(out), "--epochs", "1",
                      "--batch-size", "8", "--eval-every", "1",
                      "--eval-k", "1,3"] + SMALL_DIMS + extra)
        assert rc == 0
        log = (out / "train_log.jsonl").read_text()
        metrics[name] = json.loads(log)["metrics"]
    for mode, want in metrics["default"].items():
        got = metrics["custom"][mode]
        precision = [k for k in want if k.startswith("P@")]
        assert [got[k] for k in precision] == [want[k] for k in precision]
        assert all(got[k] != want[k] for k in want if k.startswith("PSP@"))
