"""The measured process: one workload, a closed loop with one caller.

Started by ``run.py`` with the generated input files.  It follows the CLI
user's path through public functions: ``load_dataset`` -> ``train`` (with
log and checkpoint) -> ``load_checkpoint`` -> ``build_index`` ->
``predict`` -> ``write_predictions`` -> ``read_predictions`` ->
``metrics_report``, plus ``evaluate_model`` over all three modes on the
held-out set.  Each phase is timed from outside the call.

A round trains once and then alternates predict and evaluate until they
have taken as long as training; rounds repeat until the next one would end
after ``--seconds`` (at least two).  A throughput is the work its phase did
in the run divided by the time the phase took in the run (see
``throughput``).  With ``--trace 1`` odd rounds run under the tracer and
even rounds without it, with one predict and one evaluate per round; only
per-layer metrics are reported then.

The last line of stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from workloads import BLAS_THREAD_VARS, FIXED_SEED, SCORE_TOL, WORKLOADS

MIN_ROUNDS = 2              # round 0 is compared with a repeat (sha256, metrics)
TOP_K = 5
BRUTE_FORCE_SAMPLE = 64     # held-out queries checked against brute force


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True, help="generated input directory")
    p.add_argument("--src", required=True, help="directory holding xmclite")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default="", help="write trace spans here")
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class Bench:
    def __init__(self, args, workload, src: str):
        self.args, self.wl = args, workload
        self.check = Checks()
        self.tracer = None
        t0 = time.perf_counter()
        sys.path.insert(0, src)
        import numpy as np
        import xmclite
        if not os.path.abspath(xmclite.__file__).startswith(
                os.path.abspath(src) + os.sep):
            raise SystemExit(f"imported xmclite from {xmclite.__file__}, "
                             f"not from {src}")
        self.np = np
        self.mods = {m: importlib.import_module(f"xmclite.{m}")
                     for m in ("train", "infer", "model", "data", "metrics")}
        if args.trace:
            from tracer import Tracer
            self.tracer = Tracer(self.check)
            self.tracer.install()
        data = self.mods["data"]
        inputs = args.inputs
        self.vocab = data.Vocabulary(workload.train["hash_dim"])
        labels = os.path.join(inputs, "labels.txt")
        self.train_ds = data.load_dataset(os.path.join(inputs, "train.jsonl"),
                                          labels, vocab=self.vocab)
        self.held = data.load_dataset(os.path.join(inputs, "heldout.jsonl"),
                                      labels, vocab=self.vocab)
        n = workload.num_eval
        self.eval_ds = self.held if n == self.held.num_instances else \
            data.make_dataset(self.held.instance_texts[:n],
                              self.held.label_texts,
                              self.held.positive_sets()[:n],
                              self.held.num_labels, self.vocab)
        self.setup_s = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()

        self.cfg = self.mods["train"].TrainConfig(seed=FIXED_SEED,
                                                  **workload.train)
        self.log_path = os.path.join(inputs, "train_log.jsonl")
        self.ckpt_path = os.path.join(inputs, "checkpoint.bin")
        self.pred_path = os.path.join(inputs, "predictions.tsv")
        self.props = self.mods["metrics"].propensity(
            self.train_ds.label_frequencies, self.train_ds.num_instances)
        self.samples = {"train": [], "predict": [], "eval": []}
        # Read cycles (predict, then evaluate) per round: one in traced runs,
        # which report one pass of each phase; else fixed in round 0.
        self.cycles = 1 if self.tracer is not None else None
        self.round_walls = {"plain": [], "traced": []}
        self.sha = None
        self.quality = None

    # -- phases --------------------------------------------------------
    def _timed(self, phase: str, fn):
        t = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t
        self.samples[phase].append(dt)
        return result, dt

    def _train(self):
        return self.mods["train"].train(self.train_ds, self.cfg,
                                        log_path=self.log_path,
                                        checkpoint_path=self.ckpt_path)

    def _predict(self):
        infer = self.mods["infer"]
        params, _ = self.mods["model"].load_checkpoint(self.ckpt_path)
        index = infer.build_index(params, self.held, mode="concat")
        results = infer.predict(index, params, self.held.instance_texts,
                                self.vocab, TOP_K)
        infer.write_predictions(self.pred_path, results)
        return params, results

    def _evaluate(self, params):
        train_mod = self.mods["train"]
        return train_mod.evaluate_model(params, self.eval_ds, (1, 3, 5),
                                        train_mod.MODES,
                                        propensity_dataset=self.train_ds)

    def one_round(self, round_no: int) -> float:
        (params, report), t_train = self._timed("train", self._train)
        self._check_log(report, round_no)
        with open(self.ckpt_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if self.sha is None:
            self.sha = sha
        else:
            self.check(sha == self.sha, f"checkpoint sha256 differs in round "
                                        f"{round_no}")

        # The read phases alternate until they have taken as long as
        # training did, so that their samples spread over the round rather
        # than sit in one short window of the machine's drifting speed.
        t_read, cycles = 0.0, 0
        while cycles < self.cycles if self.cycles else \
                (not cycles or t_read < t_train):
            loaded = results = None    # free the previous pass first
            (loaded, results), t_pred = self._timed("predict", self._predict)
            metrics, t_eval = self._timed("eval",
                                          lambda: self._evaluate(params))
            if self.quality is None:
                self.quality = metrics
            self.check(metrics == self.quality,
                       f"evaluate_model differs from round 0 in round {round_no}")
            t_read += t_pred + t_eval
            cycles += 1
        self.cycles = self.cycles or cycles

        t = time.perf_counter()
        tsv = self._report_from_tsv()
        t_report = time.perf_counter() - t
        for key in ("P@1", "PSP@5"):
            self.check(tsv[key] == metrics["concat"][key],
                       f"{key} from predictions TSV {tsv[key]!r} != "
                       f"evaluate_model concat {metrics['concat'][key]!r}")
        if round_no == 0:
            self._check_predictions(loaded, results)
        return t_train + t_read + t_report

    # -- checks --------------------------------------------------------
    def _check_log(self, report, round_no: int) -> None:
        with open(self.log_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        ok = [r.get("epoch") for r in records] == list(range(self.cfg.epochs))
        ok = ok and all(math.isfinite(v) for r in records for v in r.values()
                        if isinstance(v, float))
        self.check(ok and len(report.records) == len(records),
                   f"train log is not one finite record per epoch "
                   f"(round {round_no})")

    def _report_from_tsv(self) -> dict:
        by_query = self.mods["infer"].read_predictions(self.pred_path)
        ranked = [self.np.asarray([lab for lab, _ in by_query.get(i, [])],
                                  dtype=self.np.int64)
                  for i in range(self.eval_ds.num_instances)]
        return self.mods["metrics"].metrics_report(
            ranked, self.eval_ds.positive_sets(), self.props, (1, 5))

    def _check_predictions(self, params, results) -> None:
        np, infer = self.np, self.mods["infer"]
        num_labels = self.held.num_labels
        k = min(TOP_K, num_labels)
        self.check(len(results) == self.held.num_instances,
                   "one prediction list per held-out query")
        for qi, (ids, scores) in enumerate(results):
            ids, scores = np.asarray(ids), np.asarray(scores)
            d_score, d_id = np.diff(scores), np.diff(ids)
            ok = (ids.size == k and scores.size == k
                  and ids.min() >= 0 and ids.max() < num_labels
                  and not np.any(d_score > 0)
                  and not np.any((d_score == 0) & (d_id <= 0)))
            self.check(bool(ok), f"bad top-{k} row for held-out query {qi}")
        # Brute-force top-k over label_vectors / query_vectors on a sample.
        sample = np.unique(np.linspace(0, len(results) - 1,
                                       BRUTE_FORCE_SAMPLE).astype(np.int64))
        vecs = infer.label_vectors(params, self.held, "concat")
        queries = infer.query_vectors(
            params, [self.held.instance_texts[i] for i in sample], self.vocab,
            "concat")
        scores = queries @ vecs.T
        for row, qi in zip(scores, sample):
            best = np.lexsort((np.arange(num_labels), -row))[:k]
            got_ids, got_scores = results[qi]
            ok = np.allclose(got_scores, row[best], rtol=0, atol=SCORE_TOL) \
                and (np.array_equal(got_ids, best)
                     or np.allclose(row[got_ids], row[best], rtol=0,
                                    atol=SCORE_TOL))
            self.check(bool(ok), f"predict disagrees with brute-force top-{k} "
                                 f"for held-out query {int(qi)}")

    # -- rounds --------------------------------------------------------
    def run(self) -> dict:
        deadline = time.perf_counter() + self.args.seconds
        round_no = 0
        while True:
            traced = self.tracer is not None and round_no % 2 == 1
            if traced:
                self.tracer.run = round_no
                self.tracer.install()
            try:
                wall = self.one_round(round_no)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.round_walls["traced" if traced else "plain"].append(wall)
            round_no += 1
            if round_no >= MIN_ROUNDS and \
                    time.perf_counter() + wall > deadline:
                break
        return self.result(round_no)

    def throughput(self, phase: str, work_per_call: int) -> float:
        """Work done in ``phase`` over the run / time the phase took.

        On a shared VM, identical work runs at two or three speed levels
        that switch every few seconds, so one phase's times are bimodal.  Their median jumps between the levels as the shares cross
        one half; the total moves smoothly with the share of slow time, and
        runs of different seeds agree more closely.
        """
        times = self.samples[phase]
        return work_per_call * len(times) / sum(times)

    def result(self, rounds: int) -> dict:
        med = statistics.median
        wl = self.wl
        if self.tracer is None:
            q = self.quality
            metrics = {
                "train_qps": self.throughput(
                    "train", wl.num_train * self.cfg.epochs),
                "predict_qps": self.throughput(
                    "predict", self.held.num_instances),
                "eval_qps": self.throughput(
                    "eval", self.eval_ds.num_instances * 3),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "p1_de": q["de"]["P@1"], "p1_clf": q["clf"]["P@1"],
                "p1_concat": q["concat"]["P@1"],
                "psp5_concat": q["concat"]["PSP@5"],
            }
        else:
            traced_runs = list(range(1, rounds, 2))
            metrics = self.tracer.layer_metrics(traced_runs)
            metrics["trace.overhead_pct"] = 100.0 * (
                med(self.round_walls["traced"])
                / med(self.round_walls["plain"]) - 1.0)
            if self.args.spans:
                self.tracer.write(self.args.spans)
        return {"setup_s": self.setup_s, "metrics": metrics,
                "attempted": self.check.attempted,
                "failed": self.check.failed, "errors": self.check.errors,
                "rounds": rounds, "cycles": self.cycles,
                "samples": self.samples, "round_walls": self.round_walls,
                "quality": self.quality, "checkpoint_sha256": self.sha,
                "machine": machine_facts()}


def main(argv=None) -> int:
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    bench = Bench(args, workload, args.src)
    if args.setup_only:
        print(json.dumps({"setup_s": bench.setup_s}))
        return 0
    print(json.dumps(bench.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
