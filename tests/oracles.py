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


def loop_pool_membership(query_ids, pool, dataset):
    """``batching._pool_membership`` as a per-query loop: one
    ``np.intersect1d`` per query, and the transpose built label by label in
    Python lists.  The vectorised membership must equal it exactly, dtypes
    included.
    """
    pb_ids, pb_idx = [], []
    pl_idx = [[] for _ in range(pool.size)]
    for qpos, qid in enumerate(query_ids):
        inter = np.intersect1d(dataset.positives(int(qid)), pool,
                               assume_unique=True)
        pb_ids.append(inter)
        idx = np.searchsorted(pool, inter)
        pb_idx.append(idx)
        for j in idx:
            pl_idx[j].append(qpos)
    pl_idx = [np.asarray(v, dtype=np.int64) for v in pl_idx]
    pl_ids = [query_ids[v] for v in pl_idx]
    return pb_ids, pb_idx, pl_ids, pl_idx


def loop_featurize_all(texts, hash_dim):
    """``data.featurize_all`` with its row ids built by one ``np.full`` per
    text.  The vectorised rows must give the same indptr, indices and data.
    """
    import scipy.sparse as sp

    rows = np.concatenate(
        [np.full(len(t), i, dtype=np.int64) for i, t in enumerate(texts)]
    ) if texts else np.zeros(0, dtype=np.int64)
    cols = (np.concatenate([np.asarray(t, dtype=np.int64) for t in texts])
            if texts else np.zeros(0, dtype=np.int64))
    counts = sp.coo_matrix((np.ones(len(cols)), (rows, cols)),
                           shape=(len(texts), hash_dim)).tocsr()
    counts.sum_duplicates()
    counts.sort_indices()
    sums = np.asarray(counts.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.diags(scale).dot(counts).tocsr()


def loop_predictions_tsv(results, query_ids=None):
    """``infer.write_predictions``'s text, one numpy scalar at a time."""
    ids = query_ids if query_ids is not None else range(len(results))
    out = []
    for qid, (labels, scores) in zip(ids, results):
        for rank, (lab, sc) in enumerate(zip(labels, scores), start=1):
            out.append(f"{qid}\t{rank}\t{lab}\t{float(sc)!r}\n")
    return "".join(out)


def loop_pooled_softmax_loss(anchors, targets, positive_sets, temperature,
                             positive_reduction="mean",
                             batch_reduction="mean"):
    """``losses.pooled_softmax_loss`` with its positive weights set anchor by
    anchor.  Returns ``(value, per_anchor, d_anchors, d_targets)``; every
    array operation is the package's, so the results must equal it bitwise.
    """
    n, m = anchors.shape[0], targets.shape[0]
    if n == 0 or m == 0:
        return 0.0, np.zeros(n), np.zeros_like(anchors), np.zeros_like(targets)
    logits = (anchors @ targets.T) / temperature
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max + np.log(np.exp(logits - row_max).sum(axis=1, keepdims=True))
    logp = logits - lse
    pos_w = np.zeros((n, m))
    coef = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for i, pos in enumerate(positive_sets):
        pos = np.asarray(pos, dtype=np.int64)
        if pos.size == 0:
            continue
        active[i] = True
        if positive_reduction == "mean":
            pos_w[i, pos] = 1.0 / pos.size
            coef[i] = 1.0
        else:
            pos_w[i, pos] = 1.0
            coef[i] = float(pos.size)
    per_anchor = -(pos_w * logp).sum(axis=1)
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, per_anchor, np.zeros_like(anchors), np.zeros_like(targets)
    weight = 1.0 / n_active if batch_reduction == "mean" else 1.0
    value = float(per_anchor[active].sum() * weight)
    d_logits = weight * (coef[:, None] * np.exp(logp) - pos_w)
    d_logits[~active] = 0.0
    return (value, per_anchor, (d_logits @ targets) / temperature,
            (d_logits.T @ anchors) / temperature)


def assert_finite(params):
    """Raise ``FloatingPointError`` naming the first parameter group of a
    ``ModelParams`` that holds a NaN or an infinity."""
    for name, arr in params.arrays().items():
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite values in {name}")


def dense_grads(grads, params):
    """``grads.arrays()`` with both row-sparse lookup tables expanded to
    full tables as tall as ``params``' ones; unnamed rows are zero."""
    full = grads.arrays()
    for name in ("embed", "classifiers"):
        row_ids, rows = getattr(grads, name)
        size = params.arrays()[name].shape[0]
        full[name] = np.zeros((size, rows.shape[1]), dtype=rows.dtype)
        full[name][row_ids] = rows
    return full


def bf_top_k(scores, k):
    """Ranked indices, highest score first, ties toward the lower index."""
    order = sorted(range(len(scores)), key=lambda j: (-float(scores[j]), j))
    return order[:k]


def argpartition_topk(q_vecs, l_vecs, k, exclude=None,
                      block_bytes=2 << 20):
    """``infer.topk`` as it was before its threshold selection and label
    tiles: ``argpartition`` on whole score rows, with a full stable argsort
    of any row whose k-th score is tied beyond the kept entries.  The
    current ``topk`` must equal it bitwise, ids and score bits alike.

    Ids and scores of the ``min(k, L)`` best labels per query, best first.

    Scores are inner products ``q_vecs @ l_vecs.T``; equal scores rank the
    lower label id first, exactly as a stable argsort of each row would.
    Where the (N, L) CSR mask ``exclude`` has an entry, the score is -inf.
    Queries are scored in near-equal row blocks of at most about
    ``block_bytes`` of scores each.
    """
    n, num_labels = q_vecs.shape[0], l_vecs.shape[0]
    k = min(k, num_labels)
    ids = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k))
    if n == 0 or k == 0:
        return ids, scores
    # Near-equal blocks rather than full blocks plus a small tail: a GEMM of
    # a few rows can round differently from the same rows inside a larger one.
    n_blocks = min(n, -(-n * num_labels * 8 // block_bytes))
    start = 0
    for block in np.array_split(q_vecs, n_blocks):
        stop = start + block.shape[0]
        neg = block @ l_vecs.T
        if exclude is not None:
            ptr = exclude.indptr[start:stop + 1]
            rows = np.repeat(np.arange(stop - start), np.diff(ptr))
            neg[rows, exclude.indices[ptr[0]:ptr[-1]]] = -np.inf
        np.negative(neg, out=neg)
        if k < num_labels:
            cand = np.argpartition(neg, k - 1, axis=1)[:, :k]
        else:
            cand = np.broadcast_to(np.arange(num_labels), neg.shape)
        vals = np.take_along_axis(neg, cand, axis=1)
        order = np.lexsort((cand, vals), axis=1)
        ids[start:stop] = np.take_along_axis(cand, order, axis=1)
        scores[start:stop] = np.take_along_axis(vals, order, axis=1)
        # A row with more entries tied at its k-th score than it kept may
        # have kept a higher id than a stable sort would; rank it in full.
        kth = scores[start:stop, k - 1:k]
        for r in np.flatnonzero(np.count_nonzero(neg <= kth, axis=1) > k):
            best = np.argsort(neg[r], kind="stable")[:k]
            ids[start + r], scores[start + r] = best, neg[r, best]
        start = stop
    np.negative(scores, out=scores)
    return ids, scores


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
