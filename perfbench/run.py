"""xmclite benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sig-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The script generates the
workload's inputs from ``--seed`` (in this process), then starts the
measured process, ``worker.py``, which imports ``xmclite`` from ``src/``
with one BLAS thread.  ``setup_s`` is the median over ``SETUP_SAMPLES``
fresh processes that only import and load.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (machine facts, checkpoint sha256, raw samples), which is
also written under ``.perfbench_out/``.  Scratch files live under
``.perfbench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BLAS_THREAD_VARS, FIXED_SEED, WORKLOADS, check_memory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5          # the measured process's own setup plus 4 more
DEADLINE_S = 170.0         # every run must end within 180 s


def metric_units(trace: int) -> dict:
    """Name -> unit of every metric a run prints, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (self-test only, not a measurement)")
    return p.parse_args(argv)


def generate(workload, seed: int, out_dir: str) -> None:
    """The seed draws the held-out queries; the rest is fixed."""
    import gen
    splits = {"train": (workload.num_train, FIXED_SEED),
              "heldout": (workload.num_heldout, seed)}
    if workload.corpus == "signature":
        gen.signature_corpus(out_dir, workload.num_labels, splits)
    else:
        gen.zipf_corpus(out_dir, FIXED_SEED, workload.num_labels, splits,
                        workload.background_words)


def run_worker(args, inputs: str, started: float, extra=()) -> dict:
    """Start worker.py, wait for it, and parse its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--inputs", inputs, "--src", SRC,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, timeout), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _terminate(signum, frame):
    # An exception, so that subprocess.run kills and reaps the worker and
    # the scratch directory is removed on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    # One BLAS thread here (generation) and in the workers, which inherit it.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xmclite", "__init__.py")):
        print(f"error: no xmclite package under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    check_memory(workload)

    inputs = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-{os.getpid()}")
    try:
        generate(workload, args.seed, inputs)
        # Setup samples before and after the measured process, so that they
        # come from different stretches of the machine's load.
        extra_setups = 0 if args.trace else SETUP_SAMPLES - 1
        setup = [run_worker(args, inputs, started, ["--setup-only"])["setup_s"]
                 for _ in range(extra_setups // 2)]
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}"
                                     f"{'-tiny' if args.tiny else ''}")
        spans = ["--spans", stem + ".spans.jsonl"] if args.trace else []
        raw = run_worker(args, inputs, started, spans)
        setup += [run_worker(args, inputs, started, ["--setup-only"])["setup_s"]
                  for _ in range(extra_setups - extra_setups // 2)]
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {DEADLINE_S:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    metrics = dict(raw["metrics"])
    if not args.trace:
        setup.append(raw["setup_s"])
        metrics["setup_s"] = statistics.median(setup)
    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"worker did not report {missing}")
    result = {"correct": raw["failed"] == 0 and raw["attempted"] > 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "setup_samples": setup, **{k: v for k, v in raw.items()
                                         if k != "metrics"},
              "result": result}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
