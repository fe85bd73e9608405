"""Joint training loop: scheduled re-clustering + cache refresh, per-batch
collation, dual-head forward, combined loss, exact backward, Adam step.

Texts are featurized once; batches gather those rows (``take_rows``).
Every ``refresh_interval`` epochs (including epoch 0, which bootstraps from
the untrained model) ``refresh`` re-embeds the queries, rebuilds the balanced
batch plan from them, and re-embeds the labels to re-mine the hard-negative
cache; epoch 0's label embeddings also warm-start the classifier rows.  Both
passes embed in row blocks (``infer.embed_rows``), so neither holds a
forward over every row.
Within an epoch, each batch is collated and handed to
``batch_loss``, the one step body: it encodes the queries through both heads
and the pool label texts through the retrieval head, gathers classifier rows
for the pool, and differentiates
``de_weight * retrieval_loss + (1 - de_weight) * classifier_loss`` in one
backward pass over both traces; Adam then steps on those gradients.

Training runs in ``TRAIN_DTYPE`` (float32): the parameters, the feature
rows, the activations, the losses, the gradients and Adam's moments.  What
leaves a run is float64, the exact upcast of those parameters: the
checkpoints, the returned parameters and every evaluation.  Refreshes embed
in float32 into float64 arrays, so mining and clustering rank as before.

Fully deterministic for a fixed config and seed: every step runs on the
calling thread with one BLAS thread, and the top-k scans of mining and
evaluation, which ``infer.topk`` then splits over the usable cores, give
the same bits for any number of them.  The JSONL training log carries no
timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .batching import (STREAM_DROPOUT, CollatedBatch, batch_count,
                       cluster_queries, collate_batch)
from .data import Dataset, Vocabulary, featurize_all, take_rows
from .errors import ConfigError, TrainingAbort, reject_bad_values
# build_index, query_vectors and predict_vectors are unused here but stay
# importable from this module: perfbench/tracer.py wraps them by name.
from .infer import (MODES, build_index, embed_rows,  # noqa: F401
                    label_vectors_by_mode, predict_vectors, query_vectors,
                    query_vectors_by_mode, topk)
from .losses import REDUCTIONS, classifier_loss, loss_parts, retrieval_loss
from .metrics import DEFAULT_A, DEFAULT_B, metrics_report, propensity
from .model import (Grads, ModelParams, backward, forward, init_params,
                    save_checkpoint, zero_grads)
from .negatives import HardNegativeCache, mine_hard_negatives
from .optim import Adam

# The dtype of every array a training step reads or writes.
TRAIN_DTYPE = np.float32


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
        "help": "hard negatives sampled per query per batch, from a cache of "
                "this many times refresh_interval mined per query"})
    hash_dim: int = field(default=1 << 15, metadata={
        "help": "feature-hashing dimension of the token vocabulary"})
    encoder_dim: int = field(default=64, metadata={
        "help": "width of the shared token-embedding encoder"})
    search_dim: int = field(default=32, metadata={
        "help": "width of the retrieval/classifier embedding space"})
    dropout: float = field(default=0.1, metadata={
        "help": "dropout rate in both projection heads"})
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
    temperature: float = field(default=0.05, metadata={
        "help": "softmax temperature for all pool losses"})
    de_weight: float = field(default=0.5, metadata={
        "help": "weight of the retrieval loss in the total (1 = retrieval only)"})
    clf_q2l_weight: float = field(default=0.5, metadata={
        "help": "query-anchored share inside the classifier loss"})
    batch_reduction: str = field(default="mean", metadata={
        "help": "reduction over anchors: mean or sum"})

    def validate(self) -> None:
        """The one check of every training key: ``ConfigError`` names the
        first bad one."""
        reject_bad_values(self)
        checks = [
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.refresh_interval >= 1, "refresh_interval must be >= 1"),
            (self.positives_per_query >= 1, "positives_per_query must be >= 1"),
            (self.hard_negatives_per_query >= 0,
             "hard_negatives_per_query must be >= 0"),
            *((getattr(self, k) >= 1, f"{k} must be >= 1")
              for k in ("hash_dim", "encoder_dim", "search_dim")),
            (0.0 <= self.dropout < 1.0, "dropout must be in [0, 1)"),
            *((getattr(self, k) > 0, f"{k} must be > 0")
              for k in ("lr_encoder", "lr_heads", "lr_classifiers")),
            (self.grad_clip >= 0.0, "grad_clip must be >= 0"),
            (0 <= self.seed < 2 ** 64, "seed must be in [0, 2**64)"),
            (self.eval_every >= 0, "eval_every must be >= 0"),
            (len(self.eval_k) > 0, "eval_k must not be empty"),
            (all(k >= 1 for k in self.eval_k), "eval_k entries must be >= 1"),
            (self.propensity_b > 0, "propensity_b must be > 0"),
            (self.temperature > 0,
             f"temperature must be > 0, got {self.temperature}"),
            *((0.0 <= getattr(self, k) <= 1.0,
               f"{k} must be in [0, 1], got {getattr(self, k)}")
              for k in ("de_weight", "clf_q2l_weight")),
            (self.batch_reduction in REDUCTIONS,
             f"batch_reduction must be one of {REDUCTIONS}, "
             f"got {self.batch_reduction!r}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


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

    The queries and the label texts are embedded once, in row blocks and
    through only the heads ``modes`` need, and every mode's vectors are
    views of that pass's one array per side (``concat`` is the de and clf
    vectors side by side), so each mode ranks exactly what ``build_index``
    and ``query_vectors`` would give it.  Each
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


def training_features(texts: list, vocab: Vocabulary):
    """``featurize_all`` rows in ``TRAIN_DTYPE``, the rows a step encodes."""
    return featurize_all(texts, vocab).astype(TRAIN_DTYPE)


def negative_cache_size(neg_cap: int, refresh_interval: int) -> int:
    """Mined negatives kept per query: ``neg_cap`` for each epoch until the
    next refresh.  A cap of 0 gives 0, so ``refresh`` mines nothing."""
    return neg_cap * refresh_interval


def refresh(params: ModelParams, q_feats, l_feats, positive_sets: list,
            num_batches: int, seed: int, epoch: int, cache_size: int
            ) -> tuple[list[np.ndarray], HardNegativeCache | None,
                       np.ndarray | None]:
    """Batch plan for ``epoch`` from eval-mode query embeddings, the
    top-``cache_size`` hard-negative cache, and the eval-mode label
    embeddings it was mined against (both None when ``cache_size`` is 0).
    Used by ``train`` and by ``simulate-batches``.  Both passes embed in
    row blocks (``infer.embed_rows``), so each holds its (rows, search_dim)
    output and one block's forward besides."""
    q_emb = embed_rows(params, ("de",), q_feats)
    plan = cluster_queries(q_emb, num_batches, seed, epoch=epoch)
    if cache_size <= 0:
        return plan, None, None
    l_emb = embed_rows(params, ("de",), l_feats)
    return (plan, mine_hard_negatives(q_emb, l_emb, positive_sets, cache_size),
            l_emb)


def batch_loss(params: ModelParams, batch: CollatedBatch, q_rows, l_rows,
               cfg: TrainConfig, rng: np.random.Generator
               ) -> tuple[dict, Grads]:
    """Loss parts and parameter gradients of one training step.

    The only step body: train-mode forwards of the batch's query rows and
    label-pool rows (in that order, both drawing dropout masks from
    ``rng``), the retrieval and classifier losses over the one label pool,
    and one backward pass over both traces of
    ``de_weight * retrieval + (1 - de_weight) * classifier``; a loss whose
    weight is 0 gets no gradients.  ``parts`` holds the four direction
    values, their mixes ``de`` and ``clf``, and the step's ``total``.
    """
    w = cfg.de_weight
    q_trace = forward(params, q_rows, mode="train", rng=rng)
    l_trace = forward(params, l_rows, mode="train", rng=rng, heads=("de",))
    de_res = retrieval_loss(q_trace.de_out, l_trace.de_out, batch.positives,
                            cfg, with_grads=w > 0)
    clf_res = classifier_loss(q_trace.clf_out,
                              params.classifiers[batch.label_pool],
                              batch.positives, cfg, with_grads=w < 1)
    parts = loss_parts({"de_q2l": de_res.q2l_value,
                        "de_l2q": de_res.l2q_value,
                        "clf_q2l": clf_res.q2l_value,
                        "clf_l2q": clf_res.l2q_value}, cfg)

    grads = zero_grads(params)
    backward(params, [
        (q_trace, w * de_res.d_queries if w > 0 else None,
         (1 - w) * clf_res.d_queries if w < 1 else None),
        (l_trace, w * de_res.d_targets if w > 0 else None, None)], out=grads)
    if w < 1:
        # label_pool comes from np.unique: sorted unique row ids
        grads.classifiers = (batch.label_pool, (1 - w) * clf_res.d_targets)
    return parts, grads


def check_inputs(dataset: Dataset, cfg: TrainConfig,
                 eval_dataset: Dataset | None = None) -> int:
    """Everything ``train`` rejects before its first step, as ConfigError;
    returns the number of batches per epoch."""
    cfg.validate()
    num_batches = batch_count(dataset, cfg.batch_size)
    if dataset.vocab.hash_dim != cfg.hash_dim:
        raise ConfigError(
            f"dataset was featurized with hash_dim={dataset.vocab.hash_dim} "
            f"but config says {cfg.hash_dim}")
    if eval_dataset is not None:
        for what, got, want in (
                ("num_labels", eval_dataset.num_labels, dataset.num_labels),
                ("vocab.hash_dim", eval_dataset.vocab.hash_dim,
                 dataset.vocab.hash_dim)):
            if got != want:
                raise ConfigError(f"eval_dataset has {what}={got} but the "
                                  f"training set has {what}={want}")
    if cfg.eval_every > 0:
        # evaluate_model's propensities; raises if undefined for this split
        propensity(dataset.label_frequencies, dataset.num_instances,
                   cfg.propensity_a, cfg.propensity_b)
    return num_batches


def train(dataset: Dataset, cfg: TrainConfig, log_path: str | None = None,
          checkpoint_path: str | None = None,
          eval_dataset: Dataset | None = None) -> tuple[ModelParams, TrainReport]:
    num_batches = check_inputs(dataset, cfg, eval_dataset)
    start = time.perf_counter()
    seed = cfg.seed
    pos_cap, neg_cap = cfg.positives_per_query, cfg.hard_negatives_per_query
    q_feats = training_features(dataset.instance_texts, dataset.vocab)
    l_feats = training_features(dataset.label_texts, dataset.vocab)
    positive_sets = dataset.positive_sets()

    params = init_params(cfg.hash_dim, cfg.encoder_dim, cfg.search_dim,
                         dataset.num_labels, seed, cfg.dropout, TRAIN_DTYPE)
    opt = Adam(cfg.lr_encoder, cfg.lr_heads, cfg.lr_classifiers)
    cache_size = negative_cache_size(neg_cap, cfg.refresh_interval)
    plan, cache = None, None
    report = TrainReport()
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        for epoch in range(cfg.epochs):
            refreshed = epoch % cfg.refresh_interval == 0
            if refreshed:
                plan, cache, l_emb = refresh(params, q_feats, l_feats,
                                             positive_sets, num_batches, seed,
                                             epoch, cache_size)
                if epoch == 0:
                    # Classifier rows start as the labels' embeddings by the
                    # untrained model.  Mining has just made them: no step
                    # has run, and the de forward reads no classifier row.
                    if l_emb is None:
                        l_emb = embed_rows(params, ("de",), l_feats)
                    params.classifiers = l_emb.astype(TRAIN_DTYPE)

            sums = {"de_q2l": 0.0, "de_l2q": 0.0, "clf_q2l": 0.0,
                    "clf_l2q": 0.0}
            for b, ids in enumerate(plan):
                batch = collate_batch(ids, dataset, cache, pos_cap, neg_cap,
                                      seed, epoch, b)
                parts, grads = batch_loss(
                    params, batch, take_rows(q_feats, ids),
                    take_rows(l_feats, batch.label_pool), cfg,
                    np.random.default_rng([seed, STREAM_DROPOUT, epoch, b]))
                if not np.isfinite(parts["total"]):
                    raise TrainingAbort(
                        f"non-finite loss at epoch {epoch} batch {b}: "
                        f"de={parts['de']} clf={parts['clf']}")
                opt.step(params, grads, cfg.grad_clip)
                for key in sums:
                    sums[key] += parts[key]

            means = {k: v / num_batches for k, v in sums.items()}
            record = {"epoch": epoch, **loss_parts(means, cfg),
                      "refreshed": refreshed}
            if cfg.eval_every > 0 and ((epoch + 1) % cfg.eval_every == 0
                                       or epoch == cfg.epochs - 1):
                target = eval_dataset if eval_dataset is not None else dataset
                # the float64 upcast a checkpoint holds, so these are the
                # metrics of the checkpoint's read path
                record["metrics"] = evaluate_model(
                    params.astype(np.float64), target, cfg.eval_k,
                    propensity_dataset=dataset,
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
    opt = grads = None   # Adam's moments go before the float64 tables come
    return params.astype(np.float64), report
