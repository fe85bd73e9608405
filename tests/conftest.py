"""Shared builders for the test suite.

Everything is seed-driven; no test should depend on global RNG state.
"""

from __future__ import annotations

import json

import numpy as np

from xmclite import Dataset, Vocabulary, make_dataset, synth_dataset


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
