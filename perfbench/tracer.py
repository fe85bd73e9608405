"""Span tracer for the traced benchmark run.

The tracer replaces module-level names of the ``xmclite`` modules, the
names their callers actually look up, with wrappers that record one span
per call: ``[name, start, end, parent, run]``, where ``parent`` is the index
of the enclosing span (-1 at top level) and ``run`` identifies the
benchmark round.  Hooks read the wrapped calls' arguments and results to
count work (gradient rows, pool sizes, cache lengths, score-matrix bytes)
and to check mined negatives.  Spans and counts stay in memory until the
run writes them out.

Span times are read from a clock that stops while a hook runs
(``Tracer.now``), so hook work is left out of every span, the enclosing
ones included, and shows only in the traced round's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

from workloads import SCORE_TOL

# Queries of each mining call whose cached negatives are checked.
MINED_SAMPLE = 32


class Tracer:
    def __init__(self, check):
        """``check(ok, what)`` records one correctness check."""
        self.check = check
        self.spans: list[list] = []
        self.counts: dict[str, list] = defaultdict(list)   # name -> [(run, value)]
        self.run = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._ever_touched: dict = {}
        self._hook_s = 0.0      # time spent in hooks so far

    def now(self) -> float:
        """perf_counter() less the time spent in hooks."""
        return time.perf_counter() - self._hook_s

    # -- recording -----------------------------------------------------
    def count(self, name: str, value) -> None:
        self.counts[name].append((self.run, float(value)))

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Replace ``owner.attr``; ``name`` is a string or f(args, kwargs)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, tracer.now(), 0.0, parent, tracer.run]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                tracer._stack.pop()
            if hook is not None:
                t = time.perf_counter()
                hook(args, kwargs, result)
                tracer._hook_s += time.perf_counter() - t
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    # -- hooks ---------------------------------------------------------
    def _on_step(self, args, kwargs, result) -> None:
        params = args[1] if len(args) > 1 else kwargs["params"]
        grads = args[2] if len(args) > 2 else kwargs["grads"]
        row_ids, rows, updated = _embed_rows(grads.embed)
        touched = np.unique(row_ids[rows.any(axis=1)])
        self.count("optim.embed_rows_touched", touched.size)
        self.count("optim.embed_rows_updated", updated)
        ever = self._ever_touched.setdefault(
            self.run, np.zeros(params.embed.shape[0], dtype=bool))
        ever[touched] = True

    def _on_collate(self, args, kwargs, batch) -> None:
        self.count("batching.pool_labels", batch.label_pool.size)
        for idx in batch.pb_idx:
            self.count("batching.pb", len(idx))

    def _on_mine(self, args, kwargs, cache) -> None:
        q_vecs, l_vecs, positive_sets, cache_size = args[:4]
        self.count("negatives.score_bytes", q_vecs.shape[0] * l_vecs.shape[0] * 8)
        if cache_size > 0:
            fill = np.mean([len(n) for n in cache.negatives]) / cache_size
            self.count("negatives.cache_fill", fill)
        for i in range(min(MINED_SAMPLE, len(cache.negatives))):
            self.check(_mined_ok(q_vecs[i], l_vecs, positive_sets[i],
                                 cache.negatives[i], cache_size),
                       f"mined negatives of query {i} in round {self.run}")

    def _on_predict_vectors(self, args, kwargs, result) -> None:
        index, q_vecs = args[0], args[1]
        self.count("infer.score_bytes",
                   q_vecs.shape[0] * index.vectors.shape[0] * 8)

    def _on_load(self, args, kwargs, dataset) -> None:
        self.count("data.tokens",
                   sum(len(t) for t in dataset.instance_texts)
                   + sum(len(t) for t in dataset.label_texts))

    def install(self) -> None:
        """Wrap the public functions of every measured module."""
        mods = {m: importlib.import_module(f"xmclite.{m}")
                for m in ("train", "infer", "model", "data", "metrics",
                          "optim")}
        train, infer = mods["train"], mods["infer"]

        def forward_name(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
            return f"model.forward_{mode}"

        for mod in (train, infer):
            self.wrap(mod, "forward", forward_name)
            self.wrap(mod, "featurize_all", "data.featurize")
            self.wrap(mod, "build_index", "infer.build_index")
            self.wrap(mod, "query_vectors", "infer.query_vectors")
            self.wrap(mod, "predict_vectors", "infer.predict_vectors",
                      self._on_predict_vectors)
        for mod in (train, mods["metrics"]):
            self.wrap(mod, "metrics_report", "metrics.report")
        self.wrap(train, "train", "train.train")
        self.wrap(train, "evaluate_model", "train.evaluate_model")
        self.wrap(train, "backward", "model.backward")
        self.wrap(train, "zero_grads", "model.zero_grads")
        self.wrap(train, "save_checkpoint", "model.save_checkpoint")
        self.wrap(train, "collate_batch", "batching.collate", self._on_collate)
        self.wrap(train, "cluster_queries", "batching.cluster")
        self.wrap(train, "mine_hard_negatives", "negatives.mine", self._on_mine)
        self.wrap(train, "retrieval_loss", "losses.retrieval")
        self.wrap(train, "classifier_loss", "losses.classifier")
        self.wrap(infer, "predict", "infer.predict")
        self.wrap(infer, "write_predictions", "infer.write_predictions")
        self.wrap(infer, "read_predictions", "infer.read_predictions")
        self.wrap(mods["model"], "load_checkpoint", "model.load_checkpoint")
        self.wrap(mods["data"], "load_dataset", "data.load", self._on_load)
        self.wrap(mods["optim"].Adam, "step", "optim.step", self._on_step)

    # -- summary -------------------------------------------------------
    def layer_metrics(self, runs: list) -> dict:
        """Per-layer metrics: times are per round, averaged over ``runs``."""
        spans = [s for s in self.spans if s[4] in runs]
        per_round = len(runs)

        def total(name):
            return sum(e - s for n, s, e, _, _ in spans if n == name) / per_round

        def durations_ms(name):
            return [1e3 * (e - s) for n, s, e, _, _ in spans if n == name]

        def counts(name, run_set=runs):
            return [v for r, v in self.counts.get(name, []) if r in run_set]

        steps, collates = durations_ms("optim.step"), durations_ms("batching.collate")
        touched = counts("optim.embed_rows_touched")
        updated = counts("optim.embed_rows_updated")
        ever = [self._ever_touched[r] for r in runs if r in self._ever_touched]
        out = {
            "optim.step_s": total("optim.step"),
            "optim.step_p50_ms": _pct(steps, 50),
            "optim.step_p95_ms": _pct(steps, 95),
            "optim.embed_rows_touched": _mean(touched),
            "optim.embed_rows_updated": _mean(updated),
            "optim.useful_row_ratio": sum(touched) / max(1.0, sum(updated)),
            "optim.embed_rows_ever_touched_frac": _mean(
                [np.count_nonzero(e) / e.size for e in ever]),
            "model.forward_train_s": total("model.forward_train"),
            "model.forward_eval_s": total("model.forward_eval"),
            "model.backward_s": total("model.backward"),
            "model.zero_grads_s": total("model.zero_grads"),
            "model.save_checkpoint_s": total("model.save_checkpoint"),
            "model.load_checkpoint_s": total("model.load_checkpoint"),
            "negatives.mine_s": total("negatives.mine"),
            "negatives.mine_calls": len(durations_ms("negatives.mine")) / per_round,
            "negatives.score_mb": max(counts("negatives.score_bytes"),
                                      default=0.0) / 2**20,
            "negatives.cache_fill": _mean(counts("negatives.cache_fill")),
            "batching.cluster_s": total("batching.cluster"),
            "batching.collate_s": total("batching.collate"),
            "batching.collate_p50_ms": _pct(collates, 50),
            "batching.collate_p95_ms": _pct(collates, 95),
            "batching.pool_labels_mean": _mean(counts("batching.pool_labels")),
            "batching.pb_mean": _mean(counts("batching.pb")),
            "losses.retrieval_s": total("losses.retrieval"),
            "losses.classifier_s": total("losses.classifier"),
            "train.wall_s": total("train.train"),
            "train.evaluate_model_s": total("train.evaluate_model"),
            "infer.build_index_s": total("infer.build_index"),
            "infer.query_vectors_s": total("infer.query_vectors"),
            "infer.predict_vectors_s": total("infer.predict_vectors"),
            "infer.score_mb": max(counts("infer.score_bytes"),
                                  default=0.0) / 2**20,
            "infer.write_predictions_s": total("infer.write_predictions"),
            "infer.read_predictions_s": total("infer.read_predictions"),
            "data.featurize_s": total("data.featurize"),
            "metrics.report_s": total("metrics.report"),
        }
        setup = [s for s in self.spans if s[4] == "setup"]
        out["data.load_s"] = sum(e - s for n, s, e, _, _ in setup
                                 if n == "data.load")
        out["data.tokens"] = sum(counts("data.tokens", {"setup"}))
        out.update(self._train_breakdown(runs))
        return out

    def _train_breakdown(self, runs: list) -> dict:
        """Step latency, refresh time and self time of each train() span."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            children[span[3]].append(index)
        step_ms, refresh, self_time = [], 0.0, 0.0
        for index, (name, start, end, _, run) in enumerate(self.spans):
            if name != "train.train" or run not in runs:
                continue
            kids = [self.spans[i] for i in children[index]]
            self_time += (end - start) - sum(e - s for _, s, e, _, _ in kids)
            collate_start = None
            for j, (kname, ks, ke, _, _) in enumerate(kids):
                if kname == "batching.collate":
                    collate_start = ks
                elif kname == "optim.step" and collate_start is not None:
                    step_ms.append(1e3 * (ke - collate_start))
                    collate_start = None
                elif kname == "batching.cluster":
                    # A refresh: eval forward of the queries, clustering,
                    # then (with mining) eval forward of the labels + mine.
                    first = kids[j - 1] if j and kids[j - 1][0] == \
                        "model.forward_eval" else kids[j]
                    last = kids[j]
                    if j + 2 < len(kids) and kids[j + 2][0] == "negatives.mine":
                        last = kids[j + 2]
                    refresh += last[2] - first[1]
        return {"train.step_p50_ms": _pct(step_ms, 50),
                "train.step_p95_ms": _pct(step_ms, 95),
                "train.refresh_s": refresh / len(runs),
                "train.self_s": self_time / len(runs)}


def _embed_rows(embed):
    """(row ids, gradient rows, rows the step is given) of ``grads.embed``.

    A dense ``hash_dim x dim`` array gives every row; a ``(row_ids, rows)``
    pair gives only the rows it names.
    """
    if isinstance(embed, np.ndarray):
        return np.arange(embed.shape[0]), embed, embed.shape[0]
    row_ids, rows = embed
    row_ids = np.asarray(row_ids, dtype=np.int64)
    return row_ids, np.asarray(rows), row_ids.size


def _mined_ok(q_vec, l_vecs, positives, negatives, cache_size) -> bool:
    """No positives, best-first, and no better non-positive label left out.

    Scores are recomputed with another BLAS call than mining used, so
    comparisons allow ``SCORE_TOL`` of rounding.
    """
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.size > cache_size or np.isin(negatives, positives).any():
        return False
    scores = l_vecs @ q_vec
    got = scores[negatives]
    if np.any(np.diff(got) > SCORE_TOL):
        return False
    rest = np.ones(scores.size, dtype=bool)
    rest[negatives] = False
    rest[np.asarray(positives, dtype=np.int64)] = False
    if not rest.any():
        return True
    return (negatives.size == cache_size
            and scores[rest].max() <= got[-1] + SCORE_TOL)


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0
