"""Print the resident memory after each phase of one benchmark-shaped round.

Usage: python3 tools/rss_phases.py [--src DIR] --workload NAME [--seed N]
       [--tiny]

The workload's corpus is generated as ``perfbench/run.py`` generates it
(``perfbench/workloads.py`` and ``perfbench/gen.py``, imported and left
unchanged).  A fresh process then loads it, as the benchmark's worker
does, and runs the phases of one round in the worker's order: train (with
its log and checkpoint), load (the checkpoint), index (the concat label
vectors), predict (the held-out queries, top 5), write (the predictions
TSV), evaluate (``evaluate_model`` in every mode) and read (the TSV back).
After setup and after each phase it prints the process's current and peak
resident set size in MB, so a memory claim can name the phase that sets
the peak without patching ``src/``.  The peak is the process's high-water
mark (``ru_maxrss``), so a phase that raises it shows a higher peak than
the phase before; the kernel updates it lazily, so it can read a little
below the current size.  The current size is read from ``/proc/self/statm``, so
the tool runs on Linux only.

``--src`` names the directory that holds the ``xmclite`` package (default:
``src/`` of this checkout), so two checkouts can be compared.  ``--seed``
draws the held-out queries, as a benchmark run's seed does, and ``--tiny``
runs the shrunken workload of the benchmark's self-test.  Runs use one BLAS
thread, as the benchmark does.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _report(phase: str) -> None:
    """Print ``phase`` with this process's current and peak resident set
    size in MB (Linux: pages from ``/proc/self/statm``, ``ru_maxrss`` in
    kB)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        current = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"{phase:10s} {current / 2**20:8.1f} {peak / 2**20:8.1f}",
          flush=True)


def measure(args) -> int:
    """The measured process: load the inputs, then run the phases."""
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import xmclite
    if not os.path.abspath(xmclite.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported xmclite from {xmclite.__file__}, not {src}")
    from xmclite import infer
    from xmclite.data import Vocabulary, load_dataset, make_dataset
    from xmclite.model import load_checkpoint
    from xmclite.train import MODES, TrainConfig, evaluate_model, train
    from worker import TOP_K
    from workloads import FIXED_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    print(f"xmclite from {src}; workload {workload.name}"
          f"{' (tiny)' if args.tiny else ''}, seed {args.seed}")
    print(f"{'phase':10s} {'rss_mb':>8s} {'peak_mb':>8s}")
    vocab = Vocabulary(workload.train["hash_dim"])
    labels = os.path.join(args.inputs, "labels.txt")
    train_ds = load_dataset(os.path.join(args.inputs, "train.jsonl"), labels,
                            vocab=vocab)
    held = load_dataset(os.path.join(args.inputs, "heldout.jsonl"), labels,
                        vocab=vocab)
    n = workload.num_eval
    eval_ds = held if n == held.num_instances else make_dataset(
        held.instance_texts[:n], held.label_texts, held.positive_sets()[:n],
        held.num_labels, vocab)
    cfg = TrainConfig(seed=FIXED_SEED, **workload.train)
    ckpt = os.path.join(args.inputs, "checkpoint.bin")
    preds = os.path.join(args.inputs, "predictions.tsv")
    _report("setup")

    # What the worker holds: the trained parameters through the round, the
    # loaded ones and the predictions until the next predict pass, and the
    # index until its predict pass returns.
    trained, _ = train(train_ds, cfg, log_path=os.path.join(
        args.inputs, "train_log.jsonl"), checkpoint_path=ckpt)
    _report("train")
    loaded, _ = load_checkpoint(ckpt)
    _report("load")
    index = infer.build_index(loaded, held, mode="concat")
    _report("index")
    results = infer.predict(index, loaded, held.instance_texts, vocab, TOP_K)
    _report("predict")
    infer.write_predictions(preds, results)
    _report("write")
    index = None
    evaluate_model(trained, eval_ds, (1, 3, 5), MODES,
                   propensity_dataset=train_ds)
    _report("evaluate")
    infer.read_predictions(preds)
    _report("read")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the xmclite package")
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the held-out queries (default: 1)")
    parser.add_argument("--tiny", action="store_true",
                        help="the shrunken self-test workload")
    # the measured process: the inputs are already generated
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, PERFBENCH)
    from workloads import BLAS_THREAD_VARS, WORKLOADS     # imports no numpy
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.inputs:
        return measure(args)

    from run import generate
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    with tempfile.TemporaryDirectory(prefix="xmclite-rss-") as inputs:
        generate(workload, args.seed, inputs)
        # generation allocates too: the phases run in a process of their own
        cmd = [sys.executable, os.path.abspath(__file__), "--src", args.src,
               "--workload", args.workload, "--seed", str(args.seed),
               "--inputs", inputs] + (["--tiny"] if args.tiny else [])
        return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
