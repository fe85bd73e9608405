"""Shared builders for the test suite.

Everything is seed-driven; no test should depend on global RNG state.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np

from xmclite import Dataset, Vocabulary, make_dataset, synth_dataset
from xmclite.batching import STREAM_NEGATIVES, STREAM_POSITIVES


def parameter_bytes(params) -> int:
    """Length of a checkpoint's parameter section: magic, header and
    matrices, the bytes before its JSON metadata."""
    return 48 + 8 * sum(a.size for a in params.arrays().values())


def traced_peak(fn):
    """``(fn(), bytes)``: its result and the most memory that numpy and
    Python held during the call beyond what they held when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n random points on the unit sphere in R^d."""
    vecs = rng.normal(size=(n, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def random_positive_sets(rng: np.random.Generator, n: int, num_labels: int,
                         max_pos: int = 4, allow_empty: bool = False) -> list:
    lo = 0 if allow_empty else 1
    hi = min(max_pos, num_labels)
    return [np.sort(rng.choice(num_labels,
                               size=int(rng.integers(lo, hi, endpoint=True)),
                               replace=False))
            for _ in range(n)]


def mask_of(sets, num_targets: int) -> np.ndarray:
    """Boolean (len(sets), num_targets) positive mask whose row i is True at
    the ids in ``sets[i]``."""
    mask = np.zeros((len(sets), num_targets), dtype=bool)
    for i, ids in enumerate(sets):
        mask[i, np.asarray(ids, dtype=np.int64)] = True
    return mask


def sets_of(mask: np.ndarray) -> list:
    """Each row's True positions, as the list oracles take."""
    return [np.flatnonzero(row) for row in mask]


def id_dataset(rng: np.random.Generator, n: int, num_labels: int,
               max_pos: int = 4, allow_empty: bool = False,
               hash_dim: int = 64) -> Dataset:
    """Random relevance structure with throwaway texts.

    For collation/mining/metrics tests, where only ids matter.
    """
    vocab = Vocabulary(hash_dim)
    sets = random_positive_sets(rng, n, num_labels, max_pos, allow_empty)
    texts = [np.zeros(0, dtype=np.int64)] * n
    label_texts = [vocab.tokenize(f"label {l}") for l in range(num_labels)]
    return make_dataset(texts, label_texts, sets, num_labels, vocab)


_U64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """splitmix64's output function on a Python int, mod 2**64."""
    z = (x + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def documented_key(seed, stream, epoch, batch_index, qid, label) -> int:
    """Collation's documented sampling key, f(...f(f(seed) ^ stream)... ^
    label), computed with Python integers."""
    h = splitmix64(seed)
    for part in (stream, epoch, batch_index, qid, label):
        h = splitmix64(h ^ part)
    return h


def redraw(ids, cap: int, seed: int, stream: int, epoch: int,
           batch_index: int, qid: int) -> np.ndarray:
    """One query's draw: the sorted ``cap`` ids with the smallest keys."""
    ids = [int(x) for x in ids]
    ids.sort(key=lambda lab: documented_key(seed, stream, epoch, batch_index,
                                            qid, lab))
    return np.asarray(sorted(ids[:cap]), dtype=np.int64)


def redraw_samples(dataset: Dataset, cache, query_ids, max_positives: int,
                   max_negatives: int, seed: int, epoch: int = 0,
                   batch_index: int = 0):
    """Each query's sampled positives and hard negatives, drawn again one
    query at a time from collation's documented keys (``documented_key``)."""
    pos, neg = [], []
    for qid in map(int, query_ids):
        key = (epoch, batch_index, qid)
        pos.append(redraw(dataset.positives(qid), max_positives, seed,
                          STREAM_POSITIVES, *key))
        neg.append(redraw([] if cache is None else cache.negatives[qid],
                          max_negatives, seed, STREAM_NEGATIVES, *key))
    return pos, neg


def text_dataset(n: int, num_labels: int, seed: int = 0,
                 hash_dim: int = 1024, **kw) -> Dataset:
    """Separable synthetic dataset with a compact hashing vocabulary."""
    return synth_dataset(n, num_labels, seed=seed, vocab=Vocabulary(hash_dim),
                         **kw)


def write_text_dataset(dirpath, num_instances: int, num_labels: int,
                       seed: int = 0, positives=(1, 3)):
    """Write a separable dataset as (queries.jsonl, labels.txt) files."""
    rng = np.random.default_rng(seed)
    queries = dirpath / "queries.jsonl"
    labels = dirpath / "labels.txt"
    labels.write_text("".join(f"sig{l}\n" for l in range(num_labels)),
                      encoding="utf-8")
    with open(queries, "w", encoding="utf-8") as fh:
        for _ in range(num_instances):
            k = int(rng.integers(positives[0], min(positives[1], num_labels),
                                 endpoint=True))
            pos = sorted(int(x) for x in
                         rng.choice(num_labels, size=k, replace=False))
            text = " ".join([f"sig{p}" for p in pos]
                            + [f"w{int(rng.integers(16))}"])
            fh.write(json.dumps({"text": text, "labels": pos}) + "\n")
    return str(queries), str(labels)
