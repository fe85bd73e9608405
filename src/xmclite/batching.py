"""Negative-mining-aware batch construction.

Batches are the leaves of a recursive balanced 2-means split of the query
retrieval embeddings (cosine assignment, fixed Lloyd iterations, then an
exact rebalance by assignment margin), so similar queries land together and
their sampled positives act as informative in-batch negatives for each other.

Collation then samples a capped number of positives and cached hard
negatives per query, unions them into the batch label pool, and records, for
every query, which pool labels are true positives (and the transpose view),
with the metrics' one membership test, ``data.hit_matrix``.  Membership runs
against the full ground truth, so a label brought in by one query also
counts as a positive of any other query that truly has it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, hit_matrix
from .errors import ConfigError
from .negatives import HardNegativeCache

# Stream ids for the per-purpose RNGs, combined as
# default_rng([seed, stream, epoch, batch, query]) so draws are independent
# of iteration order.  Stream 0 is ``init_params``'s ``[seed, 0]``.
STREAM_CLUSTER = 1
STREAM_POSITIVES = 2
STREAM_NEGATIVES = 3
STREAM_DROPOUT = 4
STREAM_EXTRA_POSITIVES = 5


@dataclass
class BatchPlan:
    batches: list[np.ndarray]     # sorted query-id arrays, disjoint cover of [N]

    def __iter__(self):
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)


def _two_means_split(points: np.ndarray, n_left: int,
                     rng: np.random.Generator, iters: int = 10) -> np.ndarray:
    """Boolean mask of the ``n_left`` points assigned to the left half."""
    n = points.shape[0]
    seeds = rng.choice(n, size=2, replace=False)
    centroids = points[seeds].copy()
    for _ in range(iters):
        scores = points @ centroids.T            # (n, 2) cosine, points unit
        assign = scores[:, 0] >= scores[:, 1]    # ties toward the left
        new = np.zeros_like(centroids)
        for side, mask in enumerate((assign, ~assign)):
            if not mask.any():
                # re-seed an empty side with the point farthest from the other
                far = int(np.argmin(scores[:, 1 - side]))
                new[side] = points[far]
                continue
            mean = points[mask].mean(axis=0)
            norm = np.linalg.norm(mean)
            new[side] = mean / norm if norm > 0 else centroids[side]
        centroids = new
    scores = points @ centroids.T
    margin = scores[:, 0] - scores[:, 1]
    # exact balance: the n_left strongest left-margin points go left,
    # stable order so ties resolve toward lower index
    order = np.argsort(-margin, kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:n_left]] = True
    return mask


def cluster_queries(embeddings: np.ndarray, num_batches: int, seed: int,
                    epoch: int = 0, lloyd_iters: int = 10) -> BatchPlan:
    """Recursive balanced 2-means; leaf sizes differ by at most one."""
    n = embeddings.shape[0]
    if num_batches < 1:
        raise ConfigError(f"num_batches must be >= 1, got {num_batches}")
    k = min(num_batches, n)
    base, rem = divmod(n, k)
    sizes = [base + 1] * rem + [base] * (k - rem)
    leaves: list[np.ndarray] = []

    def split(ids: np.ndarray, sizes: list[int], node: int) -> None:
        if len(sizes) == 1:
            leaves.append(np.sort(ids))
            return
        kl = (len(sizes) + 1) // 2
        n_left = sum(sizes[:kl])
        rng = np.random.default_rng([seed, STREAM_CLUSTER, epoch, node])
        mask = _two_means_split(embeddings[ids], n_left, rng, lloyd_iters)
        split(ids[mask], sizes[:kl], 2 * node)
        split(ids[~mask], sizes[kl:], 2 * node + 1)

    split(np.arange(n, dtype=np.int64), sizes, node=1)
    return BatchPlan(leaves)


def batch_count(dataset: Dataset, batch_size: int) -> int:
    """Number of clustered batches in one epoch over ``dataset``."""
    if dataset.num_instances == 0 or dataset.num_labels == 0:
        raise ConfigError("dataset has no instances or no labels")
    return -(-dataset.num_instances // batch_size)


def sample_ids(ids: np.ndarray, cap: int, seed) -> np.ndarray:
    """Sorted uniform sample without replacement of min(cap, |ids|) ids.

    Draws positives, extra classifier positives and cached hard negatives.
    ``seed`` is a ``default_rng`` seed, such as collation's ``[seed, stream,
    epoch, batch, query]`` key, or a Generator; one is built only to draw.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if cap <= 0 or ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.size <= cap:
        return np.sort(ids)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(ids, size=cap, replace=False))


@dataclass
class CollatedBatch:
    """One training batch with its label pool and positive bookkeeping.

    ``pb_idx``/``pl_idx`` hold positions (into ``label_pool`` and
    ``query_ids`` respectively) ready for loss evaluation; the ``*_ids``
    variants hold the underlying dataset ids.  The ``clf_*`` fields describe
    the classifier-side pool, which can be a superset of ``label_pool`` when
    extra classifier positives are sampled.
    """

    query_ids: np.ndarray
    sampled_positives: list[np.ndarray]
    sampled_hard_negatives: list[np.ndarray]
    label_pool: np.ndarray
    pb_ids: list[np.ndarray]
    pb_idx: list[np.ndarray]
    pl_ids: list[np.ndarray]
    pl_idx: list[np.ndarray]
    extra_clf_positives: list[np.ndarray] = field(default_factory=list)
    clf_pool: np.ndarray | None = None
    clf_pb_idx: list[np.ndarray] | None = None
    clf_pl_idx: list[np.ndarray] | None = None


def _split(values: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """``values`` cut into consecutive pieces (views) of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [values[start:end] for start, end in zip([0] + ends, ends)]


def _pool_membership(query_ids: np.ndarray, pool: np.ndarray,
                     dataset: Dataset):
    """Each query's ground truth ∩ pool, as ids and pool positions, plus
    the transpose, from one ``hit_matrix`` of the queries' relevance rows
    against the sorted pool, whose row-major nonzeros come out sorted."""
    truth = dataset.relevance[query_ids]
    t_row = np.repeat(np.arange(query_ids.size), np.diff(truth.indptr))
    shape = (query_ids.size, pool.size)
    hit = hit_matrix(np.broadcast_to(pool, shape), np.ones(shape, dtype=bool),
                     t_row, truth.indices.astype(np.int64))
    pb, pl = np.nonzero(hit)[1], np.nonzero(hit.T)[1]
    pb_counts, pl_counts = hit.sum(axis=1), hit.sum(axis=0)
    return (_split(pool[pb], pb_counts), _split(pb, pb_counts),
            _split(query_ids[pl], pl_counts), _split(pl, pl_counts))


def collate_from_samples(query_ids: np.ndarray, dataset: Dataset,
                         sampled_pos: list, sampled_neg: list,
                         extras: list | None = None) -> CollatedBatch:
    """Assemble pool and positive bookkeeping from already-drawn samples."""
    query_ids = np.asarray(query_ids, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    if extras is None:
        extras = [empty] * query_ids.size
    pool = np.unique(np.concatenate([empty] + sampled_pos + sampled_neg))
    pb_ids, pb_idx, pl_ids, pl_idx = _pool_membership(query_ids, pool, dataset)
    # without extras the classifier side aliases the retrieval pool
    batch = CollatedBatch(query_ids, sampled_pos, sampled_neg, pool, pb_ids,
                          pb_idx, pl_ids, pl_idx, extras, pool, pb_idx, pl_idx)
    if any(e.size for e in extras):
        batch.clf_pool = np.unique(np.concatenate([pool] + extras))
        _, batch.clf_pb_idx, _, batch.clf_pl_idx = _pool_membership(
            query_ids, batch.clf_pool, dataset)
    return batch


def collate_batch(query_ids: np.ndarray, dataset: Dataset,
                  cache: HardNegativeCache | None, max_positives: int,
                  max_negatives: int, seed: int, epoch: int = 0,
                  batch_index: int = 0,
                  extra_clf_positives: int = 0) -> CollatedBatch:
    """Sample per-query positives/negatives and assemble the label pool."""
    if max_negatives > 0 and cache is None:
        raise ConfigError("hard-negative sampling requested without a cache")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    sampled_pos, sampled_neg, extras = [], [], []
    for qid in query_ids.tolist():
        key = [epoch, batch_index, qid]
        p_i = dataset.positives(qid)
        p_hat = sample_ids(p_i, max_positives, [seed, STREAM_POSITIVES, *key])
        sampled_pos.append(p_hat)
        sampled_neg.append(
            sample_ids(cache.negatives[qid], max_negatives,
                       [seed, STREAM_NEGATIVES, *key])
            if max_negatives > 0 else empty)
        extras.append(
            sample_ids(np.setdiff1d(p_i, p_hat, assume_unique=True),
                       extra_clf_positives, [seed, STREAM_EXTRA_POSITIVES, *key])
            if extra_clf_positives > 0 else empty)
    return collate_from_samples(query_ids, dataset, sampled_pos, sampled_neg,
                                extras)


@dataclass
class BatchStats:
    positive_cap: int
    negative_cap: int
    batch_size: int
    pb_sizes: np.ndarray        # per-query count of pool labels that are true
    pool_sizes: np.ndarray      # label-pool size per batch
    gain_sizes: np.ndarray      # pool positives beyond the query's own sample

    @property
    def mean_pb(self) -> float:
        return float(self.pb_sizes.mean()) if self.pb_sizes.size else 0.0

    def csv_row(self) -> str:
        p50 = float(np.percentile(self.pb_sizes, 50)) if self.pb_sizes.size else 0.0
        p95 = float(np.percentile(self.pb_sizes, 95)) if self.pb_sizes.size else 0.0
        mean_pool = float(self.pool_sizes.mean()) if self.pool_sizes.size else 0.0
        return (f"{self.positive_cap},{self.negative_cap},{self.batch_size},"
                f"{self.mean_pb:.6g},{p50:.6g},{p95:.6g},{mean_pool:.6g}")


BATCH_STATS_HEADER = ("positive_cap,negative_cap,batch_size,"
                      "mean_pb,p50_pb,p95_pb,mean_pool")


def batch_stats(dataset: Dataset, plan: BatchPlan,
                cache: HardNegativeCache | None, max_positives: int,
                max_negatives: int, seed: int) -> BatchStats:
    """Collate the batches of ``plan`` at epoch 0 and report pool sizes.

    ``cache`` may be None only when ``max_negatives`` is 0.
    """
    pb_sizes, pool_sizes, gains = [], [], []
    for b, ids in enumerate(plan):
        batch = collate_batch(ids, dataset, cache, max_positives,
                              max_negatives, seed, epoch=0, batch_index=b)
        pb_sizes.extend(len(p) for p in batch.pb_ids)
        gains.extend(len(p) - len(s) for p, s in
                     zip(batch.pb_ids, batch.sampled_positives))
        pool_sizes.append(batch.label_pool.size)
    batch_size = max(len(ids) for ids in plan.batches)
    return BatchStats(max_positives, max_negatives, batch_size,
                      np.asarray(pb_sizes, dtype=np.int64),
                      np.asarray(pool_sizes, dtype=np.int64),
                      np.asarray(gains, dtype=np.int64))
