"""Training objectives over a batch label pool, with exact gradients.

The core objective is a temperature-scaled softmax cross-entropy where each
anchor may have several positive targets inside the pool, given as one
boolean (anchors x targets) mask.  It is applied in two directions (queries
scoring the label pool with the batch's positive mask, and pool labels
scoring the queries with its transpose) and on two representation pairs
(retrieval-head embeddings against label retrieval embeddings;
classifier-head embeddings against classifier rows).

All losses return their gradients w.r.t. every input vector; no autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class LossConfig:
    """Mixing weights and options for the combined objective.

    ``de_weight`` mixes the retrieval-head loss against the classifier loss;
    the ``*_q2l_weight`` values mix the query-anchored direction against the
    label-anchored direction inside each of those.  ``positive_reduction``
    selects whether an anchor's log-probabilities are averaged over its
    positives ("mean") or summed ("sum").
    """

    temperature: float = field(default=0.05, metadata={
        "help": "softmax temperature for all pool losses"})
    de_weight: float = field(default=0.5, metadata={
        "help": "weight of the retrieval loss in the total (1 = retrieval only)"})
    de_q2l_weight: float = field(default=0.5, metadata={
        "help": "query-anchored share inside the retrieval loss"})
    clf_q2l_weight: float = field(default=0.5, metadata={
        "help": "query-anchored share inside the classifier loss"})
    positive_reduction: str = field(default="mean", metadata={
        "help": "per-anchor reduction over positives: mean or sum"})
    batch_reduction: str = field(default="mean", metadata={
        "help": "reduction over anchors: mean or sum"})
    extra_clf_positives: int = field(default=0, metadata={
        "help": "extra classifier-side positives per query"})

    def validate(self) -> None:
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("de_weight", "de_q2l_weight", "clf_q2l_weight"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("positive_reduction", "batch_reduction"):
            if getattr(self, name) not in _REDUCTIONS:
                raise ConfigError(
                    f"{name} must be one of {_REDUCTIONS}, got {getattr(self, name)!r}")
        if self.extra_clf_positives < 0:
            raise ConfigError("extra_clf_positives must be >= 0")


@dataclass
class PoolLossResult:
    value: float
    per_anchor: np.ndarray            # pre-batch-reduction values, zeros if skipped
    d_anchors: np.ndarray | None
    d_targets: np.ndarray | None


def pooled_softmax_loss(anchors: np.ndarray, targets: np.ndarray,
                        positives: np.ndarray, temperature: float,
                        positive_reduction: str = "mean",
                        batch_reduction: str = "mean",
                        with_grads: bool = True) -> PoolLossResult:
    """Multi-positive softmax cross-entropy of anchors against a target pool.

    ``positives`` is a boolean (anchors, targets) mask whose row i marks
    the positives of anchor i; anchors with no positives contribute nothing
    (and do not count toward the batch mean).  Log-sum-exp uses max
    subtraction.

    Reference cases (any temperature):

    * an anchor whose single pool label is its positive: loss 0;
    * one anchor scoring two pool labels identically, one positive:
      loss = ln 2 = 0.6931471805599453;
    * one anchor scoring three pool labels identically, two positives:
      ln 3 = 1.0986122886681098 under "mean" positive reduction, and
      2 ln 3 under "sum" (for any scores, an anchor's "sum" value is
      |positives| times its "mean" value).
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    if positive_reduction not in _REDUCTIONS or batch_reduction not in _REDUCTIONS:
        raise ConfigError("reductions must be 'mean' or 'sum'")
    n, m = anchors.shape[0], targets.shape[0]
    positives = np.asarray(positives)
    if positives.dtype != bool or positives.shape != (n, m):
        raise ValueError(f"positives must be a boolean ({n}, {m}) mask, got "
                         f"{positives.dtype} {positives.shape}")
    if n == 0 or m == 0:
        d_a = np.zeros_like(anchors) if with_grads else None
        d_t = np.zeros_like(targets) if with_grads else None
        return PoolLossResult(0.0, np.zeros(n), d_a, d_t)

    logits = (anchors @ targets.T) / temperature
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max + np.log(np.exp(logits - row_max).sum(axis=1, keepdims=True))
    logp = logits - lse

    # pos_w[i, p] = per-positive weight; True / size is the float 1.0 / size
    sizes = positives.sum(axis=1)
    active = sizes > 0
    if positive_reduction == "mean":
        pos_w = np.divide(positives, sizes[:, None], out=np.zeros((n, m)),
                          where=positives)
        coef = active.astype(np.float64)      # multiplier on the softmax term
    else:
        pos_w = positives.astype(np.float64)
        coef = sizes.astype(np.float64)

    per_anchor = -(pos_w * logp).sum(axis=1)
    n_active = int(active.sum())
    if n_active == 0:
        d_a = np.zeros_like(anchors) if with_grads else None
        d_t = np.zeros_like(targets) if with_grads else None
        return PoolLossResult(0.0, per_anchor, d_a, d_t)
    weight = 1.0 / n_active if batch_reduction == "mean" else 1.0
    value = float(per_anchor[active].sum() * weight)

    if not with_grads:
        return PoolLossResult(value, per_anchor, None, None)
    d_logits = weight * (coef[:, None] * np.exp(logp) - pos_w)
    d_logits[~active] = 0.0
    d_anchors = (d_logits @ targets) / temperature
    d_targets = (d_logits.T @ anchors) / temperature
    return PoolLossResult(value, per_anchor, d_anchors, d_targets)


@dataclass
class SymmetricLossResult:
    value: float
    q2l_value: float
    l2q_value: float
    d_queries: np.ndarray | None
    d_targets: np.ndarray | None


def symmetric_pool_loss(query_vecs: np.ndarray, target_vecs: np.ndarray,
                        positives: np.ndarray, temperature: float,
                        q2l_weight: float,
                        positive_reduction: str = "mean",
                        batch_reduction: str = "mean",
                        with_grads: bool = True) -> SymmetricLossResult:
    """Convex mix of the two anchoring directions over one pool: queries
    anchored with the (queries, targets) mask ``positives``, targets with its
    transpose."""
    kw = dict(positive_reduction=positive_reduction,
              batch_reduction=batch_reduction, with_grads=with_grads)
    fwd = pooled_softmax_loss(query_vecs, target_vecs, positives,
                              temperature, **kw)
    rev = pooled_softmax_loss(target_vecs, query_vecs, positives.T,
                              temperature, **kw)
    w = q2l_weight
    value = w * fwd.value + (1.0 - w) * rev.value
    if not with_grads:
        return SymmetricLossResult(value, fwd.value, rev.value, None, None)
    d_queries = w * fwd.d_anchors + (1.0 - w) * rev.d_targets
    d_targets = w * fwd.d_targets + (1.0 - w) * rev.d_anchors
    return SymmetricLossResult(value, fwd.value, rev.value, d_queries, d_targets)


def retrieval_loss(query_de_vecs, label_de_vecs, positives, cfg: LossConfig,
                   with_grads: bool = True) -> SymmetricLossResult:
    """Symmetric pool loss on the (unit-norm) retrieval-head embeddings."""
    return symmetric_pool_loss(
        query_de_vecs, label_de_vecs, positives, cfg.temperature,
        cfg.de_q2l_weight, cfg.positive_reduction, cfg.batch_reduction,
        with_grads)


def classifier_loss(query_clf_vecs, classifier_rows, positives, cfg: LossConfig,
                    with_grads: bool = True) -> SymmetricLossResult:
    """Symmetric pool loss on classifier-head outputs vs classifier rows.

    Inputs are deliberately not normalized; the pool may be larger than the
    retrieval pool when extra classifier-side positives are configured.
    """
    return symmetric_pool_loss(
        query_clf_vecs, classifier_rows, positives, cfg.temperature,
        cfg.clf_q2l_weight, cfg.positive_reduction, cfg.batch_reduction,
        with_grads)


def combined_loss(retrieval_value: float, classifier_value: float,
                  de_weight: float) -> float:
    if not 0.0 <= de_weight <= 1.0:
        raise ConfigError(f"de_weight must be in [0, 1], got {de_weight}")
    return de_weight * retrieval_value + (1.0 - de_weight) * classifier_value

