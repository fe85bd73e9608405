"""Joint training loop: scheduled re-clustering + cache refresh, per-batch
collation, dual-head forward, combined loss, exact backward, Adam step.

Texts are featurized once; batches slice those rows.  Every
``refresh_interval`` epochs (including epoch 0, which bootstraps from the
untrained model) ``refresh`` re-embeds the queries, rebuilds the balanced
batch plan from them, and re-embeds the labels to re-mine the hard-negative
cache.  Within an epoch, each batch encodes its queries through both heads
and its pool label texts through the retrieval head, gathers classifier rows
for the pool, and steps on
``de_weight * retrieval_loss + (1 - de_weight) * classifier_loss``.

Single-threaded and fully deterministic for a fixed config and seed: the
JSONL training log carries no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .batching import (STREAM_DROPOUT, batch_count, cluster_queries,
                       collate_batch)
from .data import Dataset, featurize_all
from .errors import ConfigError, TrainingAbort
# build_index, query_vectors and predict_vectors are unused here but stay
# importable from this module: perfbench/tracer.py wraps them by name.
from .infer import (MODES, build_index, label_vectors_by_mode,  # noqa: F401
                    predict_vectors, query_vectors, query_vectors_by_mode,
                    topk)
from .losses import LossConfig, classifier_loss, combined_loss, retrieval_loss
from .metrics import DEFAULT_A, DEFAULT_B, metrics_report, propensity
from .model import (ModelParams, backward, forward, init_params,
                    save_checkpoint, zero_grads)
from .negatives import HardNegativeCache, mine_hard_negatives
from .optim import Adam


@dataclass
class TrainConfig:
    epochs: int = field(default=150, metadata={"help": "training epochs"})
    batch_size: int = field(default=64, metadata={
        "help": "target batch size (clustered batches, sizes within 1)"})
    refresh_interval: int = field(default=5, metadata={
        "help": "epochs between re-clustering and cache refresh"})
    positives_per_query: int = field(default=3, metadata={
        "help": "max positives sampled per query per batch"})
    hard_negatives_per_query: int = field(default=6, metadata={
        "help": "hard negatives sampled per query per batch"})
    cache_size: int = field(default=0, metadata={
        "help": "mined negatives kept per query "
                "(0 = hard_negatives_per_query * refresh_interval)"})
    hash_dim: int = field(default=1 << 15, metadata={
        "help": "feature-hashing dimension of the token vocabulary"})
    encoder_dim: int = field(default=64, metadata={
        "help": "width of the shared token-embedding encoder"})
    search_dim: int = field(default=32, metadata={
        "help": "width of the retrieval/classifier embedding space"})
    dropout: float = field(default=0.1, metadata={
        "help": "dropout rate in both projection heads"})
    warm_start_classifiers: bool = field(default=True, metadata={
        "help": "seed classifier rows from label text embeddings"})
    lr_encoder: float = field(default=1e-4, metadata={
        "help": "Adam learning rate for the embedding table"})
    lr_heads: float = field(default=2e-4, metadata={
        "help": "Adam learning rate for both projection heads"})
    lr_classifiers: float = field(default=1e-3, metadata={
        "help": "Adam learning rate for classifier rows"})
    grad_clip: float = field(default=0.0, metadata={
        "help": "global gradient-norm clip (0 = off)"})
    seed: int = field(default=0, metadata={
        "help": "master seed; all randomness derives from it"})
    eval_every: int = field(default=0, metadata={
        "help": "evaluate every this many epochs, in all modes (0 = off)"})
    eval_k: tuple = field(default=(1, 3, 5), metadata={
        "help": "comma list of cutoffs for P@k / PSP@k"})
    propensity_a: float = field(default=DEFAULT_A, metadata={
        "help": "propensity model exponent A"})
    propensity_b: float = field(default=DEFAULT_B, metadata={
        "help": "propensity model offset B (> 0)"})
    loss: LossConfig = field(default_factory=LossConfig)

    def resolved_cache_size(self) -> int:
        if self.cache_size > 0:
            return self.cache_size
        return self.hard_negatives_per_query * self.refresh_interval

    def validate(self) -> None:
        checks = [
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.refresh_interval >= 1, "refresh_interval must be >= 1"),
            (self.positives_per_query >= 1, "positives_per_query must be >= 1"),
            (self.hard_negatives_per_query >= 0,
             "hard_negatives_per_query must be >= 0"),
            (self.cache_size >= 0, "cache_size must be >= 0"),
            *((getattr(self, k) >= 1, f"{k} must be >= 1")
              for k in ("hash_dim", "encoder_dim", "search_dim")),
            (0.0 <= self.dropout < 1.0, "dropout must be in [0, 1)"),
            *((getattr(self, k) > 0, f"{k} must be > 0")
              for k in ("lr_encoder", "lr_heads", "lr_classifiers")),
            (self.grad_clip >= 0.0, "grad_clip must be >= 0"),
            (self.eval_every >= 0, "eval_every must be >= 0"),
            (len(self.eval_k) > 0, "eval_k must not be empty"),
            (all(k >= 1 for k in self.eval_k), "eval_k entries must be >= 1"),
            (self.propensity_b > 0, "propensity_b must be > 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.loss.validate()


@dataclass
class TrainReport:
    records: list = field(default_factory=list)   # one dict per epoch
    wall_seconds: float = 0.0                     # not persisted in the log
    final_metrics: dict | None = None


def evaluate_model(params: ModelParams, dataset: Dataset,
                   k_list=(1, 3, 5), modes=MODES,
                   propensity_dataset: Dataset | None = None,
                   propensity_a: float = DEFAULT_A,
                   propensity_b: float = DEFAULT_B) -> dict:
    """P@k / PSP@k per inference mode.

    The queries and the label texts are embedded once, through only the
    heads ``modes`` need, and every mode's vectors are formed from that pass
    (``concat`` is the de and clf vectors side by side), so each mode ranks
    exactly what ``build_index`` and ``query_vectors`` would give it.  Each
    mode's top-``max(k_list)`` id matrix is scored for every k at once.
    Propensities come from ``propensity_dataset`` frequencies (a train split)
    when given, otherwise from the evaluated dataset itself.
    """
    src = propensity_dataset if propensity_dataset is not None else dataset
    props = propensity(src.label_frequencies, src.num_instances,
                       propensity_a, propensity_b)
    truth = dataset.positive_sets()
    k_max = max(k_list)
    l_vecs = label_vectors_by_mode(params, dataset, modes)
    q_vecs = query_vectors_by_mode(params, dataset.instance_texts,
                                   dataset.vocab, modes)
    out = {}
    for mode in modes:
        ids, _ = topk(q_vecs[mode], l_vecs[mode], k_max)
        out[mode] = metrics_report(ids, truth, props, k_list)
    return out


def refresh(params: ModelParams, q_feats, l_feats, positive_sets: list,
            num_batches: int, seed: int, epoch: int, cache_size: int
            ) -> tuple[list[np.ndarray], HardNegativeCache | None]:
    """Batch plan for ``epoch`` from eval-mode query embeddings, and the
    top-``cache_size`` hard-negative cache (None when ``cache_size`` is 0).
    Used by ``train`` and by ``simulate-batches``."""
    q_emb = forward(params, q_feats, mode="eval", heads=("de",)).de_out
    plan = cluster_queries(q_emb, num_batches, seed, epoch=epoch)
    if cache_size <= 0:
        return plan, None
    l_emb = forward(params, l_feats, mode="eval", heads=("de",)).de_out
    return plan, mine_hard_negatives(q_emb, l_emb, positive_sets, cache_size)


def train(dataset: Dataset, cfg: TrainConfig, log_path: str | None = None,
          checkpoint_path: str | None = None,
          eval_dataset: Dataset | None = None) -> tuple[ModelParams, TrainReport]:
    cfg.validate()
    num_batches = batch_count(dataset, cfg.batch_size)
    if dataset.vocab.hash_dim != cfg.hash_dim:
        raise ConfigError(
            f"dataset was featurized with hash_dim={dataset.vocab.hash_dim} "
            f"but config says {cfg.hash_dim}")

    start = time.perf_counter()
    seed = cfg.seed
    pos_cap, neg_cap = cfg.positives_per_query, cfg.hard_negatives_per_query
    de_w8 = cfg.loss.de_weight
    q_feats = featurize_all(dataset.instance_texts, dataset.vocab)
    l_feats = featurize_all(dataset.label_texts, dataset.vocab)
    positive_sets = dataset.positive_sets()

    params = init_params(cfg.hash_dim, cfg.encoder_dim, cfg.search_dim,
                         dataset.num_labels, seed, cfg.dropout)
    if cfg.warm_start_classifiers:
        params.classifiers = forward(params, l_feats, mode="eval",
                                     heads=("de",)).de_out.copy()
    opt = Adam(cfg.lr_encoder, cfg.lr_heads, cfg.lr_classifiers)
    cache_size = cfg.resolved_cache_size() if neg_cap > 0 else 0
    plan, cache = None, None
    report = TrainReport()
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        for epoch in range(cfg.epochs):
            refreshed = epoch % cfg.refresh_interval == 0
            if refreshed:
                plan, cache = refresh(params, q_feats, l_feats, positive_sets,
                                      num_batches, seed, epoch, cache_size)

            sums = {"de_q2l": 0.0, "de_l2q": 0.0, "clf_q2l": 0.0,
                    "clf_l2q": 0.0}
            for b, ids in enumerate(plan):
                batch = collate_batch(ids, dataset, cache, pos_cap, neg_cap, seed,
                                      epoch, b, cfg.loss.extra_clf_positives)
                rng_drop = np.random.default_rng(
                    [seed, STREAM_DROPOUT, epoch, b])
                q_trace = forward(params, q_feats[ids], mode="train",
                                  rng=rng_drop)
                l_trace = forward(params, l_feats[batch.label_pool],
                                  mode="train", rng=rng_drop, heads=("de",))
                de_res = retrieval_loss(q_trace.de_out, l_trace.de_out,
                                        batch.positives, cfg.loss,
                                        with_grads=de_w8 > 0)
                clf_rows = params.classifiers[batch.clf_pool]
                clf_res = classifier_loss(q_trace.clf_out, clf_rows,
                                          batch.clf_positives, cfg.loss,
                                          with_grads=de_w8 < 1)
                total = combined_loss(de_res.value, clf_res.value, de_w8)
                if not np.isfinite(total):
                    raise TrainingAbort(
                        f"non-finite loss at epoch {epoch} batch {b}: "
                        f"de={de_res.value} clf={clf_res.value}")

                grads = zero_grads(params)
                backward(params, q_trace,
                         d_de=de_w8 * de_res.d_queries if de_w8 > 0 else None,
                         d_clf=((1 - de_w8) * clf_res.d_queries
                                if de_w8 < 1 else None),
                         out=grads)
                backward(params, l_trace,
                         d_de=de_w8 * de_res.d_targets if de_w8 > 0 else None,
                         out=grads)
                if de_w8 < 1:
                    # clf_pool comes from np.unique: sorted unique row ids
                    grads.classifiers = (batch.clf_pool,
                                         (1 - de_w8) * clf_res.d_targets)
                opt.step(params, grads, cfg.grad_clip)

                sums["de_q2l"] += de_res.q2l_value
                sums["de_l2q"] += de_res.l2q_value
                sums["clf_q2l"] += clf_res.q2l_value
                sums["clf_l2q"] += clf_res.l2q_value

            means = {k: v / num_batches for k, v in sums.items()}
            w_d, w_c = cfg.loss.de_q2l_weight, cfg.loss.clf_q2l_weight
            de_mean = w_d * means["de_q2l"] + (1 - w_d) * means["de_l2q"]
            clf_mean = w_c * means["clf_q2l"] + (1 - w_c) * means["clf_l2q"]
            record = {"epoch": epoch, **means, "de": de_mean, "clf": clf_mean,
                      "total": combined_loss(de_mean, clf_mean, de_w8),
                      "refreshed": refreshed}
            if cfg.eval_every > 0 and ((epoch + 1) % cfg.eval_every == 0
                                       or epoch == cfg.epochs - 1):
                target = eval_dataset if eval_dataset is not None else dataset
                record["metrics"] = evaluate_model(
                    params, target, cfg.eval_k, propensity_dataset=dataset,
                    propensity_a=cfg.propensity_a,
                    propensity_b=cfg.propensity_b)
            report.records.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            if checkpoint_path and ((epoch + 1) % cfg.refresh_interval == 0
                                    or epoch == cfg.epochs - 1):
                save_checkpoint(checkpoint_path, params,
                                extra={"epoch": epoch + 1,
                                       "config": asdict(cfg)})
    finally:
        if log_fh is not None:
            log_fh.close()

    report.wall_seconds = time.perf_counter() - start
    if report.records and "metrics" in report.records[-1]:
        report.final_metrics = report.records[-1]["metrics"]
    return params, report
