"""Negative-mining-aware batch construction.

Batches are the leaves of a recursive balanced 2-means split of the query
retrieval embeddings (cosine assignment, fixed Lloyd iterations, then an
exact rebalance by assignment margin), so similar queries land together and
their sampled positives act as informative in-batch negatives for each other.

Collation then samples a capped number of positives and cached hard
negatives per query, unions them into the batch's one label pool (both loss
heads score it), and records which pool labels are true positives of which
query as one boolean (queries x pool) mask, from the metrics' one membership
test, ``data.hit_matrix``.  Its transpose is the label-anchored view.
Membership runs against the full ground truth, so a label brought in by one
query also counts as a positive of any other query that truly has it, and
the loss averages over all of a query's positives in the pool.

Every collation draw is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): each (query, label) candidate gets a
64-bit key hashed from (seed, stream, epoch, batch, query id, label id), and
a query keeps the ``cap`` candidates with the smallest keys.  A batch's draw
is a few array operations and one ``lexsort``, and a query's sample depends
on neither the order of its candidates nor the other queries in its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, gather_segments, hit_matrix
from .errors import ConfigError
from .negatives import HardNegativeCache

# Stream ids, one per purpose.  Collation's draws (positives, negatives)
# put theirs second in every sampling key, (seed, stream, epoch, batch,
# query, label) (``sample_keys``); clustering and dropout seed generators
# with default_rng([seed, stream, epoch, ...]).  Stream 0 is
# ``init_params``'s ``[seed, 0]``.
STREAM_CLUSTER = 1
STREAM_POSITIVES = 2
STREAM_NEGATIVES = 3
STREAM_DROPOUT = 4

LLOYD_ITERS = 10  # Lloyd iterations per 2-means split


def _two_means_split(points: np.ndarray, n_left: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of the ``n_left`` points assigned to the left half."""
    n = points.shape[0]
    seeds = rng.choice(n, size=2, replace=False)
    centroids = points[seeds].copy()
    for _ in range(LLOYD_ITERS):
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
                    epoch: int = 0) -> list[np.ndarray]:
    """Recursive balanced 2-means: sorted query-id arrays that cover
    ``range(N)`` disjointly, with sizes that differ by at most one."""
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
        mask = _two_means_split(embeddings[ids], n_left, rng)
        split(ids[mask], sizes[:kl], 2 * node)
        split(ids[~mask], sizes[kl:], 2 * node + 1)

    split(np.arange(n, dtype=np.int64), sizes, node=1)
    return leaves


def batch_count(dataset: Dataset, batch_size: int) -> int:
    """Number of clustered batches in one epoch over ``dataset``."""
    if dataset.num_instances == 0 or dataset.num_labels == 0:
        raise ConfigError("dataset has no instances or no labels")
    return -(-dataset.num_instances // batch_size)


# splitmix64's increment and output multipliers (Steele et al., "Fast
# splittable pseudorandom number generators", OOPSLA 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function of a uint64 array, a bijection.  Array
    arithmetic wraps mod 2**64 silently, where numpy scalars would warn."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def sample_keys(seed: int, stream: int, epoch: int, batch: int, qids,
                labels) -> np.ndarray:
    """uint64 sampling key of each (query id, label id) pair:
    ``f(f(f(f(f(f(seed) ^ stream) ^ epoch) ^ batch) ^ qid) ^ label)`` with
    ``f`` the splitmix64 output function and all values mod 2**64.  ``f`` is
    a bijection, so one query's distinct labels never share a key."""
    h = _splitmix64(np.array([seed], dtype=np.uint64))
    for part in (stream, epoch, batch):
        h = _splitmix64(h ^ np.uint64(part))
    h = _splitmix64(h ^ np.asarray(qids, dtype=np.int64).astype(np.uint64))
    return _splitmix64(h ^ np.asarray(labels, dtype=np.int64).astype(np.uint64))


def keyed_sample(row: np.ndarray, ids: np.ndarray, qids: np.ndarray,
                 cap: int, key: tuple) -> np.ndarray:
    """Boolean mask of the candidates a draw keeps.

    Candidate j belongs to query ``qids[row[j]]``; each query keeps its
    min(cap, count) candidates with the smallest ``sample_keys(*key, qid,
    id)``, ``key`` being (seed, stream, epoch, batch).  For keys that behave
    as independent uniform draws, that is a uniform sample without
    replacement.  No key is computed when no query has more candidates than
    the cap.
    """
    keep = np.zeros(ids.size, dtype=bool)
    if cap <= 0:
        return keep
    counts = np.bincount(row, minlength=len(qids))
    if counts.max(initial=0) <= cap:
        keep[:] = True
        return keep
    keys = sample_keys(*key, np.asarray(qids)[row], ids)
    order = np.lexsort((keys, row))         # by query, then by key
    rank = np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep[order[rank < cap]] = True
    return keep


@dataclass
class CollatedBatch:
    """One training batch with its label pool and positive mask.

    ``positives[i, j]`` is True when ``label_pool[j]`` is a ground-truth
    label of the i-th query.
    """

    label_pool: np.ndarray
    positives: np.ndarray         # (queries, pool) bool

    @property
    def pb_idx(self) -> list[np.ndarray]:
        """Each query's positive pool positions.  Only the benchmark's
        tracer reads it (``perfbench/tracer.py``, ``_on_collate``)."""
        return [np.flatnonzero(row) for row in self.positives]


def _pool_membership(pool: np.ndarray, t_row: np.ndarray, t_ids: np.ndarray,
                     num_queries: int) -> np.ndarray:
    """(queries x pool) mask of each query's ground truth in the pool, from
    one ``hit_matrix``: query r's truth is ``t_ids[t_row == r]``.  The query
    count is explicit, since the last queries may have no truth at all."""
    shape = (num_queries, pool.size)
    return hit_matrix(np.broadcast_to(pool, shape), np.ones(shape, dtype=bool),
                      t_row, t_ids)


def collate_batch(query_ids: np.ndarray, dataset: Dataset,
                  cache: HardNegativeCache | None, max_positives: int,
                  max_negatives: int, seed: int, epoch: int = 0,
                  batch_index: int = 0) -> CollatedBatch:
    """Sample per-query positives/negatives and assemble the label pool.

    One ``keyed_sample`` each draws the positives from the queries' truth
    rows (stream ``STREAM_POSITIVES``) and the hard negatives from their
    cached lists (``STREAM_NEGATIVES``).
    """
    if max_negatives > 0 and cache is None:
        raise ConfigError("hard-negative sampling requested without a cache")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    n = query_ids.size
    # each query's truth and cached negatives: (position in query_ids, id)
    t_ptr, t_at = gather_segments(dataset.relevance.indptr, query_ids)
    t_row = np.repeat(np.arange(n), np.diff(t_ptr))
    t_ids = dataset.relevance.indices[t_at].astype(np.int64)
    drawn = [t_ids[keyed_sample(t_row, t_ids, query_ids, max_positives,
                                (seed, STREAM_POSITIVES, epoch, batch_index))]]
    if max_negatives > 0:
        n_ptr, n_at = gather_segments(cache.indptr, query_ids)
        n_ids = cache.indices[n_at].astype(np.int64)
        drawn.append(n_ids[keyed_sample(
            np.repeat(np.arange(n), np.diff(n_ptr)), n_ids, query_ids,
            max_negatives, (seed, STREAM_NEGATIVES, epoch, batch_index))])
    pool = np.unique(np.concatenate(drawn))
    return CollatedBatch(pool, _pool_membership(pool, t_row, t_ids, n))


@dataclass
class BatchStats:
    positive_cap: int
    negative_cap: int
    batch_size: int
    pb_sizes: np.ndarray        # per-query count of pool labels that are true
    pool_sizes: np.ndarray      # label-pool size per batch

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


def batch_stats(dataset: Dataset, plan: list[np.ndarray],
                cache: HardNegativeCache | None, max_positives: int,
                max_negatives: int, seed: int) -> BatchStats:
    """Collate the batches of ``plan`` at epoch 0 and report pool sizes.

    ``cache`` may be None only when ``max_negatives`` is 0.
    """
    pb_sizes, pool_sizes = [], []
    for b, ids in enumerate(plan):
        batch = collate_batch(ids, dataset, cache, max_positives,
                              max_negatives, seed, epoch=0, batch_index=b)
        pb_sizes.append(batch.positives.sum(axis=1))
        pool_sizes.append(batch.label_pool.size)
    batch_size = max(len(ids) for ids in plan)
    return BatchStats(max_positives, max_negatives, batch_size,
                      np.concatenate(pb_sizes),
                      np.asarray(pool_sizes, dtype=np.int64))
