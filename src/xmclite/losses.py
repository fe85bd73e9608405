"""Training objectives over a batch label pool, with exact gradients.

The core objective is a temperature-scaled softmax cross-entropy where each
anchor may have several positive targets inside the pool, given as one
boolean (anchors x targets) mask; an anchor's loss is the mean of its
positives' negative log-probabilities (the pick-some-labels reduction over
the positives picked into the batch).  Both directions are read off one
score matrix: its rows anchor the queries on the batch's positive mask, its
columns anchor the pool labels on the mask's transpose.  It runs on two
representation pairs over the same one pool (retrieval-head embeddings
against label retrieval embeddings; classifier-head embeddings against
classifier rows).  The retrieval loss is always the even mix of its two
directions (``DE_Q2L_WEIGHT``); the classifier loss's mix is
``clf_q2l_weight``; ``loss_parts`` mixes the two losses into the total.

All losses return their gradients w.r.t. every input vector; no autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:   # train imports this module
    from .train import TrainConfig

REDUCTIONS = ("mean", "sum")
# query-anchored share inside the retrieval loss, the rest label-anchored
DE_Q2L_WEIGHT = 0.5


@dataclass
class SymmetricLossResult:
    value: float
    q2l_value: float
    l2q_value: float
    d_queries: np.ndarray | None
    d_targets: np.ndarray | None


def _anchored_loss(logits: np.ndarray, positives: np.ndarray,
                   batch_reduction: str, with_grads: bool
                   ) -> tuple[float, np.ndarray | None]:
    """One anchoring direction over a score matrix whose rows are the
    anchors: the value and its gradient w.r.t. ``logits``.  Needs at least
    one positive in ``positives``; rows without one are left out."""
    n, m = logits.shape
    sizes = positives.sum(axis=1)
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max + np.log(np.exp(logits - row_max).sum(axis=1, keepdims=True))
    logp = logits - lse

    # pos_w[i, p] = per-positive weight; True / size is the float 1.0 / size,
    # rounded to the logits' dtype
    active = sizes > 0
    pos_w = np.divide(positives, sizes[:, None],
                      out=np.zeros((n, m), dtype=logits.dtype), where=positives)

    per_anchor = -(pos_w * logp).sum(axis=1)
    n_active = int(active.sum())
    weight = 1.0 / n_active if batch_reduction == "mean" else 1.0
    value = float(per_anchor[active].sum() * weight)
    if not with_grads:
        return value, None
    d_logits = weight * (np.exp(logp) - pos_w)
    d_logits[~active] = 0.0
    return value, d_logits


def symmetric_pool_loss(query_vecs: np.ndarray, target_vecs: np.ndarray,
                        positives: np.ndarray, temperature: float,
                        q2l_weight: float,
                        batch_reduction: str = "mean",
                        with_grads: bool = True) -> SymmetricLossResult:
    """Multi-positive softmax cross-entropy over one score matrix, read both
    ways and mixed: ``q2l_weight`` times the query-anchored direction (its
    rows, with the boolean (queries, targets) mask ``positives``) plus the
    rest times the target-anchored one (its columns, with the transpose).

    In each direction an anchor's value is the mean of its positives'
    negative log-probabilities (log-sum-exp with max subtraction); anchors
    with no positive contribute nothing and do not count toward the batch
    mean.  Reference cases of one direction (any temperature):

    * an anchor whose single pool target is its positive: loss 0;
    * one anchor scoring two targets identically, one positive:
      loss = ln 2 = 0.6931471805599453;
    * one anchor scoring three targets identically, two positives:
      ln 3 = 1.0986122886681098.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    if batch_reduction not in REDUCTIONS:
        raise ConfigError("batch_reduction must be 'mean' or 'sum'")
    n, m = query_vecs.shape[0], target_vecs.shape[0]
    positives = np.asarray(positives)
    if positives.dtype != bool or positives.shape != (n, m):
        raise ValueError(f"positives must be a boolean ({n}, {m}) mask, got "
                         f"{positives.dtype} {positives.shape}")
    if not positives.any():
        # no query, no target or no positive: nothing to learn from
        d_q = np.zeros_like(query_vecs) if with_grads else None
        d_t = np.zeros_like(target_vecs) if with_grads else None
        return SymmetricLossResult(0.0, 0.0, 0.0, d_q, d_t)

    scores = (query_vecs @ target_vecs.T) / temperature
    q2l, d_q2l = _anchored_loss(scores, positives, batch_reduction,
                                with_grads)
    l2q, d_l2q = _anchored_loss(scores.T, positives.T, batch_reduction,
                                with_grads)
    w = q2l_weight
    value = w * q2l + (1.0 - w) * l2q
    if not with_grads:
        return SymmetricLossResult(value, q2l, l2q, None, None)
    d_scores = (w * d_q2l + (1.0 - w) * d_l2q.T) / temperature
    return SymmetricLossResult(value, q2l, l2q, d_scores @ target_vecs,
                               d_scores.T @ query_vecs)


def retrieval_loss(query_de_vecs, label_de_vecs, positives, cfg: TrainConfig,
                   with_grads: bool = True) -> SymmetricLossResult:
    """Symmetric pool loss on the (unit-norm) retrieval-head embeddings,
    the even mix of its two directions."""
    return symmetric_pool_loss(
        query_de_vecs, label_de_vecs, positives, cfg.temperature,
        DE_Q2L_WEIGHT, cfg.batch_reduction, with_grads)


def classifier_loss(query_clf_vecs, classifier_rows, positives, cfg: TrainConfig,
                    with_grads: bool = True) -> SymmetricLossResult:
    """Symmetric pool loss on classifier-head outputs vs the classifier rows
    of the retrieval loss's pool; inputs are deliberately not normalized."""
    return symmetric_pool_loss(
        query_clf_vecs, classifier_rows, positives, cfg.temperature,
        cfg.clf_q2l_weight, cfg.batch_reduction, with_grads)


def loss_parts(directions: dict, cfg: TrainConfig) -> dict:
    """The four direction values ``de_q2l``, ``de_l2q``, ``clf_q2l`` and
    ``clf_l2q`` with their mixes: ``de``, ``clf`` and the step's ``total``,
    ``de_weight * de + (1 - de_weight) * clf``."""
    w_d, w_c = DE_Q2L_WEIGHT, cfg.clf_q2l_weight
    de = w_d * directions["de_q2l"] + (1.0 - w_d) * directions["de_l2q"]
    clf = w_c * directions["clf_q2l"] + (1.0 - w_c) * directions["clf_l2q"]
    return {**directions, "de": de, "clf": clf,
            "total": cfg.de_weight * de + (1.0 - cfg.de_weight) * clf}
