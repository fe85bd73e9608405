"""Held-out quality of two source trees across training seeds, paired by seed.

Usage:
    python3 tools/quality.py --workload wordy-serve --seeds 0-9 \\
        --src-a OTHER/src --set epochs=5 [--set-a KEY=VALUE] [--set-b ...]

Each side is a directory holding the ``xmclite`` package (``--src-a``,
``--src-b``; default ``src/`` of this checkout) plus ``key=value`` config
overrides: ``--set`` applies to both sides, ``--set-a``/``--set-b`` to one.
The corpus and base config come from a benchmark workload
(``perfbench/workloads.py``, written by ``perfbench/run.py``'s ``generate``):
its training split and label catalog, and the leading ``num_eval`` queries of
the held-out split a benchmark run with seed ``HELDOUT_SEED`` evaluates.  Each
side trains once per training seed (``TrainConfig.seed``) and is scored on
those queries in every mode (P@1, P@5, PSP@5; propensities from the training
split).  It is also scored, by P@1 and PSP@5, on two label regimes of those
queries: "seen" queries have at least one positive with a training positive,
"unseen" queries have none (a query without positives counts as unseen).

The runs are paired by seed.  For every subset (all queries or one regime),
mode and metric the table gives each side's median, the median of the paired
differences b - a, the count of seeds where b is above / below a, and each
side's seed spread (the interquartile range).  A paired median inside side
a's spread is smaller than this number of seeds can resolve.  The table is
printed and written, with every run's numbers, as JSON to ``--out``.  The
sides run as two processes with one BLAS thread each.  Each side checks its
config for every seed before it loads data; a side that exits non-zero
stops the other one and the tool.  This is a decision aid, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
HELDOUT_SEED = 1
MODES = ("de", "clf", "concat")
METRICS = ("P@1", "P@5", "PSP@5")
REGIMES = ("seen", "unseen")
REGIME_METRICS = ("P@1", "PSP@5")


def _seed_list(text: str) -> list[int]:
    """'0-9' or '0,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _override(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key.strip(), value.strip()


def _write_inputs(workload, out_dir: str) -> None:
    """The benchmark's inputs for ``HELDOUT_SEED``, the held-out split cut to
    the ``num_eval`` queries a benchmark run evaluates."""
    from run import generate
    generate(workload, HELDOUT_SEED, out_dir)
    path = os.path.join(out_dir, "heldout.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()[:workload.num_eval]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def label_regimes(label_frequencies, positive_sets: list) -> dict:
    """Held-out query positions by label regime: "seen" when at least one
    positive has a training positive (``label_frequencies`` > 0), "unseen"
    otherwise."""
    seen = np.array([bool(np.any(label_frequencies[p] > 0))
                     for p in positive_sets], dtype=bool)
    return {"seen": np.flatnonzero(seen), "unseen": np.flatnonzero(~seen)}


def side_main(args) -> int:
    """One side: train every seed and print one JSON line of its metrics."""
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import xmclite
    if not os.path.abspath(xmclite.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported xmclite from {xmclite.__file__}, "
                         f"not {src}")
    from xmclite.config import build_config
    from xmclite.data import Vocabulary, load_dataset, make_dataset
    from xmclite.errors import ConfigError
    from xmclite.train import evaluate_model, train
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS

    base = {k: str(v) for k, v in WORKLOADS[args.workload].train.items()}
    overrides = dict(json.loads(args.overrides))
    try:
        configs = {seed: build_config({}, {**base, "seed": str(seed),
                                           **overrides})[0].train
                   for seed in _seed_list(args.seeds)}
    except ConfigError as exc:
        print(f"side {args.side}: {exc}", file=sys.stderr, flush=True)
        return 2
    vocab = Vocabulary(next(iter(configs.values())).hash_dim)
    labels = os.path.join(args.inputs, "labels.txt")
    train_ds = load_dataset(os.path.join(args.inputs, "train.jsonl"), labels,
                            vocab=vocab)
    held = load_dataset(os.path.join(args.inputs, "heldout.jsonl"), labels,
                        vocab=vocab)
    truth = held.positive_sets()
    subsets = {name: make_dataset([held.instance_texts[i] for i in idx],
                                  held.label_texts, [truth[i] for i in idx],
                                  held.num_labels, vocab)
               for name, idx in label_regimes(train_ds.label_frequencies,
                                              truth).items() if idx.size}
    runs = []
    for seed, cfg in configs.items():
        params, _ = train(train_ds, cfg)

        def score(dataset):
            return evaluate_model(
                params, dataset, (1, 5), propensity_dataset=train_ds,
                propensity_a=cfg.propensity_a, propensity_b=cfg.propensity_b)

        runs.append({"seed": seed, "metrics": score(held),
                     "regimes": {name: score(subset)
                                 for name, subset in subsets.items()},
                     "regime_queries": {name: subset.num_instances
                                        for name, subset in subsets.items()}})
        print(f"  side {args.side} seed {seed}: P@1 "
              + " ".join(f"{m} {runs[-1]['metrics'][m]['P@1']:.4f}"
                         for m in MODES), file=sys.stderr, flush=True)
    print(json.dumps(runs))
    return 0


def _wait(procs: dict) -> None:
    """Wait for every side process.  When one exits non-zero, stop the
    others and exit naming it; stop them too if the wait is interrupted."""
    pending = dict(procs)
    try:
        while pending:
            for name, proc in list(pending.items()):
                code = proc.poll()
                if code is None:
                    continue
                del pending[name]
                if code != 0:
                    raise SystemExit(f"side {name} exited {code}")
            if pending:
                time.sleep(0.1)
    finally:
        for proc in pending.values():
            proc.kill()
            proc.wait()


def _subsets(run: dict) -> list[tuple[str, tuple, dict]]:
    """(subset, metrics, metrics by mode) of one run: all queries, then each
    label regime that has queries."""
    return [("all", METRICS, run["metrics"])] + [
        (name, REGIME_METRICS, run["regimes"][name])
        for name in REGIMES if name in run["regimes"]]


def summarize(runs_a: list, runs_b: list) -> list[dict]:
    """One row per (subset, mode, metric) of the paired comparison."""
    by_seed_b = {r["seed"]: r for r in runs_b}
    pairs = [(_subsets(r), _subsets(by_seed_b[r["seed"]])) for r in runs_a]
    rows = []
    for i, (subset, metrics, _) in enumerate(pairs[0][0]):
        for mode in MODES:
            for metric in metrics:
                a = [sa[i][2][mode][metric] for sa, _ in pairs]
                b = [sb[i][2][mode][metric] for _, sb in pairs]
                diff = [y - x for x, y in zip(a, b)]
                median_diff = float(np.median(diff))
                iqr_a, iqr_b = (float(np.subtract(*np.percentile(x, [75, 25])))
                                for x in (a, b))
                rows.append({
                    "subset": subset, "mode": mode, "metric": metric,
                    "median_a": float(np.median(a)),
                    "median_b": float(np.median(b)),
                    "median_diff": median_diff,
                    "b_above": sum(d > 0 for d in diff),
                    "b_below": sum(d < 0 for d in diff),
                    "iqr_a": iqr_a, "iqr_b": iqr_b,
                    "inside_spread_a": abs(median_diff) <= iqr_a})
    return rows


def format_table(rows: list[dict]) -> str:
    lines = ["| queries | mode | metric | median a | median b "
             "| paired median b-a | b above/below | IQR a | IQR b "
             "| inside a's spread |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r['subset']} | {r['mode']} | {r['metric']} "
            f"| {r['median_a']:.4f} | {r['median_b']:.4f} "
            f"| {r['median_diff']:+.4f} | {r['b_above']}/{r['b_below']} "
            f"| {r['iqr_a']:.4f} | {r['iqr_b']:.4f} "
            f"| {'yes' if r['inside_spread_a'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="wordy-serve",
                        help="benchmark workload giving corpus and config")
    parser.add_argument("--seeds", default="0-9",
                        help="training seeds, e.g. 0-9 or 0,4,7")
    default_src = os.path.join(ROOT, "src")
    parser.add_argument("--src-a", default=default_src,
                        help="directory holding side a's xmclite package")
    parser.add_argument("--src-b", default=default_src,
                        help="directory holding side b's xmclite package")
    for flag, which in (("--set", "both sides"), ("--set-a", "side a"),
                        ("--set-b", "side b")):
        parser.add_argument(flag, type=_override, action="append", default=[],
                            metavar="KEY=VALUE",
                            help=f"config override for {which} (repeatable)")
    parser.add_argument("--out", default="",
                        help="JSON record to write (default: "
                             ".quality_out/<workload>.json in the checkout)")
    # a side's process: train one tree for every seed
    parser.add_argument("--side", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--overrides", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        return side_main(args)

    sys.path.insert(0, PERFBENCH)
    from workloads import BLAS_THREAD_VARS, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    sides = {"a": (os.path.abspath(args.src_a), args.set + args.set_a),
             "b": (os.path.abspath(args.src_b), args.set + args.set_b)}
    with tempfile.TemporaryDirectory(prefix="xmclite-quality-") as inputs:
        _write_inputs(workload, inputs)
        # each side prints its runs to a file: a pipe would block a side
        # that outputs more than the pipe holds while the other is awaited
        outs = {name: os.path.join(inputs, f"side-{name}.out")
                for name in sides}
        procs = {}
        for name, (src, overrides) in sides.items():
            with open(outs[name], "w", encoding="utf-8") as out:
                procs[name] = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--side", name,
                     "--src", src, "--workload", args.workload,
                     "--inputs", inputs, "--seeds", args.seeds,
                     "--overrides", json.dumps(overrides)],
                    stdout=out, env=env)
        _wait(procs)
        runs = {}
        for name, path in outs.items():
            with open(path, encoding="utf-8") as fh:
                runs[name] = json.loads(fh.read().splitlines()[-1])

    rows = summarize(runs["a"], runs["b"])
    # the record first: a reader that closes stdout early loses no runs
    out = args.out or os.path.join(ROOT, ".quality_out",
                                   f"{args.workload}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    record = {"workload": args.workload, "seeds": _seed_list(args.seeds),
              "heldout_seed": HELDOUT_SEED,
              "sides": {name: {"src": src, "overrides": dict(overrides),
                               "runs": runs[name]}
                        for name, (src, overrides) in sides.items()},
              "summary": rows}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sizes = runs["a"][0]["regime_queries"]
    print(f"workload {args.workload}, seeds {args.seeds}, held-out "
          f"{workload.num_eval} queries (seed {HELDOUT_SEED}; "
          + ", ".join(f"{sizes.get(name, 0)} {name}" for name in REGIMES)
          + f"), {time.perf_counter() - started:.0f} s")
    for name, (src, overrides) in sides.items():
        print(f"side {name}: {src} "
              + " ".join(f"{k}={v}" for k, v in overrides))
    print(format_table(rows))
    print(f"record: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
