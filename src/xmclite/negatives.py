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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .infer import topk


@dataclass
class HardNegativeCache:
    """Each query's mined negatives, ranked best-first, as CSR rows: query
    ``q``'s list is ``indices[indptr[q]:indptr[q + 1]]``.  Collation gathers
    a batch's rows from these two arrays."""

    indptr: np.ndarray    # int64, one entry more than there are queries
    indices: np.ndarray   # int64 label ids

    @classmethod
    def from_lists(cls, negatives: list) -> HardNegativeCache:
        """The cache holding one ranked list of label ids per query."""
        sizes = [len(row) for row in negatives]
        return cls(np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
                   np.concatenate([np.zeros(0, dtype=np.int64),
                                   *negatives]).astype(np.int64))

    @cached_property
    def negatives(self) -> list[np.ndarray]:
        """Per-query views of ``indices``, ranked best-first."""
        return [self.indices[a:b]
                for a, b in zip(self.indptr[:-1], self.indptr[1:])]


def mine_hard_negatives(query_vecs: np.ndarray, label_vecs: np.ndarray,
                        positive_sets: list,
                        cache_size: int) -> HardNegativeCache:
    """Top ``cache_size`` non-positive labels per query by inner product.

    Equal scores resolve toward the lower label id.  Queries whose positives
    cover almost the whole label set simply get shorter lists, and a
    ``cache_size`` of 0 gives every query an empty one.
    """
    n, num_labels = query_vecs.shape[0], label_vecs.shape[0]
    if len(positive_sets) != n:
        raise ValueError("one positive set per query required")

    cols = [np.asarray(p, dtype=np.int64) for p in positive_sets]
    indptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    indices = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    exclude = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                            shape=(n, num_labels))
    ids, scores = topk(query_vecs, label_vecs, cache_size, exclude)
    # excluded labels score -inf and rank last; row-major order keeps ranks
    kept = np.isfinite(scores)
    return HardNegativeCache(
        np.concatenate([[0], np.cumsum(kept.sum(axis=1))]).astype(np.int64),
        ids[kept].astype(np.int64))
