"""Print the sha256 of the parameters and train log of fixed training runs.

Usage: python3 tools/digests.py [--src DIR]

``--src`` names the directory that holds the ``xmclite`` package (default:
``src/`` of this checkout), so two checkouts can be compared run for run.
A refactor that claims no behaviour change must print the same pairs before
and after.  The checkpoint digest covers its parameter section (magic, header
and matrices), not the JSON metadata that follows it, so it also compares
with checkpoints written before the metadata moved into the file.  Runs use
one BLAS thread, which the determinism contract needs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys
import tempfile
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _runs(xmc):
    """(name, dataset, TrainConfig) of every digested run."""
    acceptance = xmc.synth_dataset(512, 128, seed=0)
    wide = xmc.synth_dataset(300, 64, seed=3, positives_per_instance=(1, 6))
    # the same corpus with every fifth query's positives emptied
    sparse = xmc.make_dataset(
        wide.instance_texts, wide.label_texts,
        [[] if i % 5 == 0 else p for i, p in enumerate(wide.positive_sets())],
        wide.num_labels, wide.vocab)

    def accept(neg, epochs=50, grad_clip=0.0, **loss):
        return xmc.TrainConfig(epochs=epochs, batch_size=64,
                               refresh_interval=5, positives_per_query=2,
                               hard_negatives_per_query=neg, encoder_dim=64,
                               search_dim=32, seed=0, grad_clip=grad_clip,
                               loss=xmc.LossConfig(**loss))

    def extra_clf(reduction):
        return xmc.TrainConfig(epochs=6, batch_size=32, refresh_interval=2,
                               positives_per_query=2,
                               hard_negatives_per_query=3, encoder_dim=64,
                               search_dim=32, seed=1,
                               loss=xmc.LossConfig(
                                   extra_clf_positives=2,
                                   positive_reduction=reduction,
                                   batch_reduction=reduction))

    return [
        ("acceptance neg2", acceptance, accept(2)),
        ("acceptance neg0", acceptance, accept(0)),
        ("de_weight 0", acceptance, accept(2, epochs=10, de_weight=0.0)),
        ("de_weight 1", acceptance, accept(2, epochs=10, de_weight=1.0)),
        ("grad_clip 0.5", acceptance, accept(2, epochs=10, grad_clip=0.5)),
        ("extra_clf sum", wide, extra_clf("sum")),
        ("extra_clf mean", wide, extra_clf("mean")),
        ("empty truth rows", sparse, extra_clf("sum")),
    ]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parameter_section(blob: bytes) -> bytes:
    """A checkpoint's 48 header bytes and the six float64 matrices its dims
    give: the bytes before its JSON metadata."""
    hash_dim, enc, search, labels = struct.unpack_from("<4Q", blob, 8)
    return blob[:48 + 8 * (hash_dim * enc + 2 * enc * search + 2 * search
                           + labels * search)]


def main(argv=None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(root, "src"),
                        help="directory holding the xmclite package")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import xmclite as xmc
    if not os.path.abspath(xmc.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported xmclite from {xmc.__file__}, not {src}")

    print(f"xmclite from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, log = os.path.join(tmp, "ckpt.bin"), os.path.join(tmp, "log.jsonl")
        for name, dataset, cfg in _runs(xmc):
            started = time.perf_counter()
            xmc.train(dataset, cfg, log_path=log, checkpoint_path=ckpt)
            elapsed = time.perf_counter() - started
            params = hashlib.sha256(_parameter_section(_read(ckpt)))
            print(f"{name:16s} parameters {params.hexdigest()}  "
                  f"log {hashlib.sha256(_read(log)).hexdigest()}  "
                  f"{elapsed:5.2f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
