"""Per-query hard-negative cache over label retrieval embeddings.

The cache holds, for each query, the highest-scoring labels that are not
ground-truth positives, ranked by inner product of unit retrieval embeddings.
It is rebuilt on a schedule (every few epochs) and sampled from on every
batch.  Mining is an exact scan through ``infer.topk``, whose query blocks
bound the memory of the score matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .fileio import atomic_open
from .infer import topk

CACHE_MAGIC = b"XMCHNC01"


@dataclass
class HardNegativeCache:
    negatives: list[np.ndarray]   # per query, ranked best-first
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.negatives)


def mine_hard_negatives(query_vecs: np.ndarray, label_vecs: np.ndarray,
                        positive_sets: list, cache_size: int,
                        epoch: int = 0) -> HardNegativeCache:
    """Top ``cache_size`` non-positive labels per query by inner product.

    Equal scores resolve toward the lower label id.  Queries whose positives
    cover almost the whole label set simply get shorter lists.
    """
    n, num_labels = query_vecs.shape[0], label_vecs.shape[0]
    if len(positive_sets) != n:
        raise ValueError("one positive set per query required")
    if cache_size <= 0:
        return HardNegativeCache([np.zeros(0, dtype=np.int64)] * n, epoch)

    cols = [np.asarray(p, dtype=np.int64) for p in positive_sets]
    indptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    indices = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    exclude = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                            shape=(n, num_labels))
    ids, scores = topk(query_vecs, label_vecs, cache_size, exclude)
    return HardNegativeCache(
        [row[np.isfinite(s)] for row, s in zip(ids, scores)], epoch)


def sample_hard_negatives(cache: HardNegativeCache, query_id: int,
                          count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement of min(count, |H_i|) cached ids."""
    pool = cache.negatives[query_id]
    if count <= 0 or pool.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pool.size <= count:
        return np.sort(pool)
    return np.sort(rng.choice(pool, size=count, replace=False))


def _write_varint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"cannot store negative value {value} as a varint")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(blob: bytes, offset: int) -> tuple[int, int]:
    """Value and next offset; IndexError past the end of ``blob``."""
    shift = value = 0
    while True:
        byte = blob[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift >= 64:
            raise ValueError(f"varint at byte {offset} is longer than 64 bits")


def save_cache(cache: HardNegativeCache, path: str) -> None:
    buf = bytearray(CACHE_MAGIC)
    _write_varint(buf, cache.epoch)
    _write_varint(buf, len(cache.negatives))
    for ids in cache.negatives:
        _write_varint(buf, len(ids))
        for x in ids:
            _write_varint(buf, int(x))
    with atomic_open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_cache(path: str) -> HardNegativeCache:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CACHE_MAGIC:
        raise ConfigError(f"{path}: not a hard-negative cache (bad magic)")
    # Every varint takes at least one byte, so the loops below end at the
    # end of the blob whatever counts a corrupt file declares.
    try:
        epoch, off = _read_varint(blob, 8)
        count, off = _read_varint(blob, off)
        negatives = []
        for _ in range(count):
            size, off = _read_varint(blob, off)
            ids = []
            for _ in range(size):
                x, off = _read_varint(blob, off)
                ids.append(x)
            negatives.append(np.asarray(ids, dtype=np.int64))
    except (IndexError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: corrupt hard-negative cache "
                          f"({type(exc).__name__}: {exc})") from exc
    if off != len(blob):
        raise ConfigError(f"{path}: {len(blob) - off} trailing bytes after "
                          f"the hard-negative cache")
    return HardNegativeCache(negatives, epoch)
