"""Print the sha256 of the parameters and train log of fixed training runs,
of the batch statistics of a fixed ``simulate-batches`` run, and of the
parameters and train log of each benchmark workload's training run.

Usage: python3 tools/digests.py [--src DIR]

``--src`` names the directory that holds the ``xmclite`` package (default:
``src/`` of this checkout), so two checkouts can be compared run for run.
A refactor that claims no behaviour change must print the same pairs before
and after.  The checkpoint digest covers its parameter section (magic, header
and matrices), not the JSON metadata that follows it, so it also compares
with checkpoints written before the metadata moved into the file.  The
fixed runs build their ``TrainConfig`` from flat keys through
``config.build_config``, as a config file would, so the tool runs unchanged
against any checkout that accepts those keys.  A workload's run is the one ``perfbench/worker.py`` makes: ``train`` on the
inputs ``perfbench/run.py`` generates for seed 1, at
``TrainConfig(seed=FIXED_SEED, **workload.train)``.  Runs use one BLAS
thread, which the determinism contract needs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
import time


def _runs(xmc):
    """(name, dataset, TrainConfig) of every digested run."""
    acceptance = xmc.synth_dataset(512, 128, seed=0)
    wide = xmc.synth_dataset(300, 64, seed=3, positives_per_instance=(1, 6))
    # the same corpus with every fifth query's positives emptied
    sparse = xmc.make_dataset(
        wide.instance_texts, wide.label_texts,
        [[] if i % 5 == 0 else p for i, p in enumerate(wide.positive_sets())],
        wide.num_labels, wide.vocab)
    # 256 queries over 8192 labels: mining and evaluation each score 4
    # query blocks of 64 rows against 2 label tiles of 4096.
    tiled = xmc.synth_dataset(256, 8192, seed=5)

    from xmclite.config import build_config

    def config(**keys):
        # flat keys, as a config file or the command line give them
        return build_config(
            {}, {key: str(value) for key, value in keys.items()})[0].train

    def accept(neg, epochs=50, **keys):
        return config(epochs=epochs, batch_size=64, refresh_interval=5,
                      positives_per_query=2, hard_negatives_per_query=neg,
                      encoder_dim=64, search_dim=32, seed=0, **keys)

    def wide_run(reduction):
        return config(epochs=6, batch_size=32, refresh_interval=2,
                      positives_per_query=2, hard_negatives_per_query=3,
                      encoder_dim=64, search_dim=32, seed=1,
                      batch_reduction=reduction)

    return [
        ("acceptance neg2", acceptance, accept(2)),
        ("acceptance neg0", acceptance, accept(0)),
        ("de_weight 0", acceptance, accept(2, epochs=10, de_weight=0.0)),
        ("de_weight 1", acceptance, accept(2, epochs=10, de_weight=1.0)),
        ("grad_clip 0.5", acceptance, accept(2, epochs=10, grad_clip=0.5)),
        ("clf_q2l 0", acceptance, accept(2, epochs=10, clf_q2l_weight=0.0)),
        ("wide batch sum", wide, wide_run("sum")),
        ("wide batch mean", wide, wide_run("mean")),
        ("empty rows sum", sparse, wide_run("sum")),
        ("empty rows mean", sparse, wide_run("mean")),
        ("blocks and tiles", tiled,
         config(epochs=2, batch_size=64, refresh_interval=1,
                positives_per_query=2, hard_negatives_per_query=3,
                encoder_dim=64, search_dim=32, seed=2, eval_every=1)),
    ]


# simulate-batches on an untrained model: negative caps 2 and 6 at refresh
# interval 2 give cache sizes 4 and 12, mined once at 12.
SIMULATE_FLAGS = ["--sim-positive-caps", "1,2,3", "--sim-negative-caps",
                  "0,2,6", "--refresh-interval", "2", "--batch-size", "16"]


# ``generate``'s seed draws only the held-out split, which training never
# reads; 1 is the seed a benchmark round starts with
BENCH_SEED = 1


def _write_corpus(dirpath: str) -> tuple[str, str]:
    """A separable text corpus of 128 queries over 64 labels as
    (queries.jsonl, labels.txt): each query names its 1-3 labels' tokens
    and one of 16 noise words."""
    import numpy as np      # here: main() first pins BLAS to one thread

    rng = np.random.default_rng(0)
    queries = os.path.join(dirpath, "queries.jsonl")
    labels = os.path.join(dirpath, "labels.txt")
    with open(labels, "w", encoding="utf-8") as fh:
        fh.write("".join(f"sig{l}\n" for l in range(64)))
    with open(queries, "w", encoding="utf-8") as fh:
        for _ in range(128):
            k = int(rng.integers(1, 3, endpoint=True))
            pos = sorted(int(x) for x in rng.choice(64, size=k, replace=False))
            text = " ".join([f"sig{p}" for p in pos]
                            + [f"w{int(rng.integers(16))}"])
            fh.write(json.dumps({"text": text, "labels": pos}) + "\n")
    return queries, labels


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parameter_section(blob: bytes) -> bytes:
    """A checkpoint's 48 header bytes and the six float64 matrices its dims
    give: the bytes before its JSON metadata."""
    hash_dim, enc, search, labels = struct.unpack_from("<4Q", blob, 8)
    return blob[:48 + 8 * (hash_dim * enc + 2 * enc * search + 2 * search
                           + labels * search)]


def _train_line(xmc, name: str, dataset, cfg, tmp: str) -> str:
    """The digest line of one training run, with its wall time."""
    ckpt, log = os.path.join(tmp, "ckpt.bin"), os.path.join(tmp, "log.jsonl")
    started = time.perf_counter()
    xmc.train(dataset, cfg, log_path=log, checkpoint_path=ckpt)
    elapsed = time.perf_counter() - started
    params = hashlib.sha256(_parameter_section(_read(ckpt)))
    return (f"{name:16s} parameters {params.hexdigest()}  "
            f"log {hashlib.sha256(_read(log)).hexdigest()}  {elapsed:5.2f}s")


def _workload_runs(xmc, tmp: str):
    """(name, dataset, TrainConfig) of each benchmark workload's run."""
    from run import generate
    from workloads import FIXED_SEED, WORKLOADS
    for name, workload in WORKLOADS.items():
        inputs = os.path.join(tmp, name)
        os.makedirs(inputs)
        generate(workload, BENCH_SEED, inputs)
        dataset = xmc.load_dataset(
            os.path.join(inputs, "train.jsonl"),
            os.path.join(inputs, "labels.txt"),
            vocab=xmc.Vocabulary(workload.train["hash_dim"]))
        yield name, dataset, xmc.TrainConfig(seed=FIXED_SEED,
                                             **workload.train)


def main(argv=None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(root, "src"),
                        help="directory holding the xmclite package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    from workloads import BLAS_THREAD_VARS     # imports no numpy
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import xmclite as xmc
    if not os.path.abspath(xmc.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported xmclite from {xmc.__file__}, not {src}")

    print(f"xmclite from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, dataset, cfg in _runs(xmc):
            print(_train_line(xmc, name, dataset, cfg, tmp), flush=True)

        from xmclite.cli import main as cli_main
        queries, labels = _write_corpus(tmp)
        out_dir = os.path.join(tmp, "simulate")
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["simulate-batches", "--queries-path", queries,
                           "--labels-path", labels, "--out-dir", out_dir]
                          + SIMULATE_FLAGS)
        elapsed = time.perf_counter() - started
        if rc != 0:
            raise SystemExit(f"simulate-batches exited {rc}")
        stats = hashlib.sha256(_read(os.path.join(out_dir, "batch_stats.csv")))
        print(f"{'simulate-batches':16s} batch_stats.csv {stats.hexdigest()}  "
              f"{elapsed:5.2f}s", flush=True)

        for name, dataset, cfg in _workload_runs(xmc, tmp):
            print(_train_line(xmc, name, dataset, cfg, tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
