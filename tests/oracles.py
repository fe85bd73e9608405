"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and ``math``
so it shares no code (and no vectorization shortcuts) with the package under
test.  Finite-difference helpers for gradient checks live here too.
"""

from __future__ import annotations

import math

import numpy as np


def bf_pool_loss(anchors, targets, positive_sets, temperature,
                 positive_reduction="mean", batch_reduction="mean"):
    """Multi-positive softmax cross-entropy by direct enumeration."""
    anchors = [list(map(float, a)) for a in np.asarray(anchors)]
    targets = [list(map(float, t)) for t in np.asarray(targets)]
    per_anchor = []
    for i, a in enumerate(anchors):
        pos = [int(p) for p in positive_sets[i]]
        if not pos:
            continue
        scores = []
        for t in targets:
            scores.append(sum(x * y for x, y in zip(a, t)) / temperature)
        mx = max(scores)
        log_z = mx + math.log(sum(math.exp(s - mx) for s in scores))
        total = sum(-(scores[p] - log_z) for p in pos)
        if positive_reduction == "mean":
            total /= len(pos)
        per_anchor.append(total)
    if not per_anchor:
        return 0.0
    value = sum(per_anchor)
    if batch_reduction == "mean":
        value /= len(per_anchor)
    return value


def bf_symmetric_loss(query_vecs, target_vecs, pos_by_query, pos_by_target,
                      temperature, q2l_weight, positive_reduction="mean",
                      batch_reduction="mean"):
    fwd = bf_pool_loss(query_vecs, target_vecs, pos_by_query, temperature,
                       positive_reduction, batch_reduction)
    rev = bf_pool_loss(target_vecs, query_vecs, pos_by_target, temperature,
                       positive_reduction, batch_reduction)
    return q2l_weight * fwd + (1.0 - q2l_weight) * rev, fwd, rev


def bf_collate(query_ids, positive_map, sampled_pos, sampled_neg):
    """Pool and per-query/per-label positive sets straight from definitions.

    ``positive_map[qid]`` is the full ground-truth set of query ``qid``;
    sampled_pos/sampled_neg are parallel to ``query_ids``.  Returns
    (pool, pb, pl) where pb maps qid -> sorted positive ids in the pool and
    pl maps pool label -> sorted list of qids having it as ground truth.
    """
    union = set()
    for p_hat, h_hat in zip(sampled_pos, sampled_neg):
        union |= set(int(x) for x in p_hat)
        union |= set(int(x) for x in h_hat)
    pool = sorted(union)
    pb = {}
    for qid, p_hat in zip(query_ids, sampled_pos):
        truth = set(int(x) for x in positive_map[qid])
        pb[qid] = sorted(set(int(x) for x in p_hat) | (union & truth))
    pl = {lab: sorted(q for q in query_ids
                      if lab in set(int(x) for x in positive_map[q]))
          for lab in pool}
    return pool, pb, pl


def bf_top_k(scores, k):
    """Ranked indices, highest score first, ties toward the lower index."""
    order = sorted(range(len(scores)), key=lambda j: (-float(scores[j]), j))
    return order[:k]


def bf_hard_negatives(score_row, positives, cache_size):
    banned = set(int(p) for p in positives)
    ranked = [j for j in bf_top_k(score_row, len(score_row))
              if j not in banned]
    return ranked[:cache_size]


def bf_precision_at_k(predictions, truths, k):
    total = 0.0
    for pred, truth in zip(predictions, truths):
        t = set(int(x) for x in truth)
        hits = sum(1 for lab in list(pred)[:k] if int(lab) in t)
        total += hits / k
    return total / len(predictions)


def bf_psp_at_k(predictions, truths, propensities, k):
    total, counted = 0.0, 0
    for pred, truth in zip(predictions, truths):
        t = set(int(x) for x in truth)
        if not t:
            continue
        counted += 1
        gained = sum(1.0 / propensities[int(lab)]
                     for lab in list(pred)[:k] if int(lab) in t)
        ideal = sum(sorted((1.0 / propensities[lab] for lab in t),
                           reverse=True)[:k])
        total += gained / ideal
    return total / counted if counted else 0.0


def loop_metrics_report(predictions, truth_sets, propensities,
                        k_list=(1, 3, 5)):
    """``metrics_report`` as a per-query loop: one ``np.isin`` per query, k
    and metric, totals accumulated query by query.

    This is the straight-line form the vectorised metrics must equal bitwise:
    it fixes every summation order (numpy's own ``sum`` per row, then one
    running total over queries).
    """
    def precision(k):
        if not len(predictions):
            return 0.0
        total = 0.0
        for pred, truth in zip(predictions, truth_sets):
            top = np.asarray(pred, dtype=np.int64)[:k]
            total += np.isin(top, np.asarray(truth, dtype=np.int64)).sum() / k
        return float(total / len(predictions))

    def psp(k):
        inv = 1.0 / np.asarray(propensities, dtype=np.float64)
        total, counted = 0.0, 0
        for pred, truth in zip(predictions, truth_sets):
            truth = np.asarray(truth, dtype=np.int64)
            if truth.size == 0:
                continue
            counted += 1
            top = np.asarray(pred, dtype=np.int64)[:k]
            hits = top[np.isin(top, truth)]
            gained = inv[hits].sum()
            ideal = np.sort(inv[truth])[::-1][:k].sum()
            total += gained / ideal
        return float(total / counted) if counted else 0.0

    report = {}
    for k in k_list:
        report[f"P@{k}"] = precision(k)
        report[f"PSP@{k}"] = psp(k)
    return report


def bf_triplet(anchor, positives, negatives, margin):
    value = 0.0
    for p in positives:
        sp = sum(float(a) * float(x) for a, x in zip(anchor, p))
        for n in negatives:
            sn = sum(float(a) * float(x) for a, x in zip(anchor, n))
            value += max(0.0, sn - sp + margin)
    return value


def bf_ova_bce(scores, targets):
    value = 0.0
    for s, y in zip(scores, targets):
        s, y = float(s), float(y)
        sig = 1.0 / (1.0 + math.exp(-s)) if s > -30 else math.exp(s)
        sig = min(max(sig, 1e-300), 1.0 - 1e-16)
        value += -(y * math.log(sig) + (1.0 - y) * math.log(1.0 - sig))
    return value


class BfDenseAdam:
    """Dense Adam with bias correction, one array entry at a time.

    ``step`` updates every entry of every array in ``params`` (name -> array,
    changed in place) from ``grads`` (name -> dense array of the same shape),
    with the learning rate ``lrs[name]``.  Python floats round each operation
    as numpy does, so with the same operation order the results are bitwise
    those of a vectorized dense update.
    """

    def __init__(self, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lrs, self.beta1, self.beta2, self.eps = lrs, beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, x in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(x)
                self.v[name] = np.zeros_like(x)
            xf, gf = x.reshape(-1), np.asarray(grads[name]).reshape(-1)
            mf, vf = self.m[name].reshape(-1), self.v[name].reshape(-1)
            for j in range(xf.size):
                g = float(gf[j])
                m = float(mf[j]) * self.beta1 + (1.0 - self.beta1) * g
                v = float(vf[j]) * self.beta2 + (1.0 - self.beta2) * g * g
                mf[j], vf[j] = m, v
                xf[j] = float(xf[j]) - self.lrs[name] * (
                    (m / bc1) / (math.sqrt(v / bc2) + self.eps))


def finite_difference(fn, arrays, step=1e-6):
    """Central finite-difference gradients of scalar ``fn`` w.r.t. each array.

    ``arrays`` are mutated in place during probing and restored afterwards.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = fn()
            flat[j] = orig - step
            down = fn()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a|, |n|, floor) over all entries of all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
