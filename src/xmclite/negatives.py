"""Per-query hard-negative cache over label retrieval embeddings.

The cache holds, for each query, the highest-scoring labels that are not
ground-truth positives, ranked by inner product of unit retrieval embeddings.
It is rebuilt on a schedule (every few epochs) and sampled from on every
batch.  Mining is an exact scan through ``infer.topk``, whose query blocks
bound the memory of the score matrix.  The cache lives in memory only,
between refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .infer import topk


@dataclass
class HardNegativeCache:
    negatives: list[np.ndarray]   # per query, ranked best-first


def mine_hard_negatives(query_vecs: np.ndarray, label_vecs: np.ndarray,
                        positive_sets: list,
                        cache_size: int) -> HardNegativeCache:
    """Top ``cache_size`` non-positive labels per query by inner product.

    Equal scores resolve toward the lower label id.  Queries whose positives
    cover almost the whole label set simply get shorter lists.
    """
    n, num_labels = query_vecs.shape[0], label_vecs.shape[0]
    if len(positive_sets) != n:
        raise ValueError("one positive set per query required")
    if cache_size <= 0:
        return HardNegativeCache([np.zeros(0, dtype=np.int64)] * n)

    cols = [np.asarray(p, dtype=np.int64) for p in positive_sets]
    indptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    indices = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    exclude = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                            shape=(n, num_labels))
    ids, scores = topk(query_vecs, label_vecs, cache_size, exclude)
    return HardNegativeCache(
        [row[np.isfinite(s)] for row, s in zip(ids, scores)])
