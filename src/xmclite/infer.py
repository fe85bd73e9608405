"""Label indexing and top-k prediction in three scoring modes.

* ``de``: unit retrieval embeddings on both sides (cosine).
* ``clf``: normalized classifier rows scored against the normalized
  classifier-head query embedding.
* ``concat``: both vectors concatenated per side, so every label's score is
  exactly its de score plus its clf score (rows have norm sqrt(2)).

Prediction, evaluation and hard-negative mining all rank labels with
``topk``, an exact scan that scores queries in blocks of bounded size, so
memory does not grow with the number of queries.  Ties always resolve toward
the lower label id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Dataset, Vocabulary, featurize_all
from .errors import ConfigError, DegenerateEmbeddingError
from .fileio import atomic_open
from .model import ModelParams, forward

MODES = ("de", "clf", "concat")

# Bytes of float64 scores one block of queries may hold in ``topk``.  The
# block's argpartition needs an int64 index array of the same size again.
SCORE_BLOCK_BYTES = 2 << 20


@dataclass
class LabelIndex:
    mode: str
    vectors: np.ndarray              # (L, d) or (L, 2d)


def _check_modes(modes) -> None:
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    """Rows of ``x`` scaled to unit norm; zero rows raise, naming ``what``."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.flatnonzero(norms.ravel() == 0.0)
    if bad.size:
        raise DegenerateEmbeddingError(f"zero-norm {what} {bad.tolist()}")
    return x / norms


def _by_mode(modes, de: np.ndarray | None, clf: np.ndarray | None) -> dict:
    """Each mode's vectors from one side's unit de and clf vectors."""
    return {mode: de if mode == "de" else clf if mode == "clf"
            else np.hstack([de, clf]) for mode in modes}


def label_vectors_by_mode(params: ModelParams, dataset: Dataset,
                          modes=MODES) -> dict:
    """Label vectors of each of ``modes``, embedding the label texts at most
    once; without ``clf`` or ``concat`` the classifier rows are not read."""
    _check_modes(modes)
    de = clf = None
    if any(mode != "clf" for mode in modes):
        feats = featurize_all(dataset.label_texts, dataset.vocab)
        de = forward(params, feats, mode="eval", heads=("de",)).de_out
    if any(mode != "de" for mode in modes):
        clf = _unit_rows(params.classifiers, "classifier rows for labels")
    return _by_mode(modes, de, clf)


def query_vectors_by_mode(params: ModelParams, texts: list, vocab: Vocabulary,
                          modes=MODES) -> dict:
    """Query vectors of each of ``modes`` from one featurize and one forward
    pass through the heads those modes need (eval, deterministic)."""
    _check_modes(modes)
    heads = tuple(head for head, other in (("de", "clf"), ("clf", "de"))
                  if any(mode != other for mode in modes))
    trace = forward(params, featurize_all(texts, vocab), mode="eval",
                    heads=heads)
    clf = None
    if "clf" in heads:
        clf = _unit_rows(trace.clf_out, "classifier-head embeddings for queries")
    return _by_mode(modes, trace.de_out, clf)


def label_vectors(params: ModelParams, dataset: Dataset, mode: str) -> np.ndarray:
    return label_vectors_by_mode(params, dataset, (mode,))[mode]


def build_index(params: ModelParams, dataset: Dataset,
                mode: str = "concat") -> LabelIndex:
    return LabelIndex(mode, label_vectors(params, dataset, mode))


def query_vectors(params: ModelParams, texts: list, vocab: Vocabulary,
                  mode: str) -> np.ndarray:
    """Embed query texts for the given scoring mode (eval, deterministic)."""
    return query_vectors_by_mode(params, texts, vocab, (mode,))[mode]


def topk(q_vecs: np.ndarray, l_vecs: np.ndarray, k: int,
         exclude: sp.csr_matrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of the ``min(k, L)`` best labels per query, best first.

    Scores are inner products ``q_vecs @ l_vecs.T``; equal scores rank the
    lower label id first, exactly as a stable argsort of each row would.
    Where the (N, L) CSR mask ``exclude`` has an entry, the score is -inf.
    Queries are scored in near-equal row blocks of at most about
    ``SCORE_BLOCK_BYTES`` of scores each.
    """
    n, num_labels = q_vecs.shape[0], l_vecs.shape[0]
    k = min(k, num_labels)
    ids = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k))
    if n == 0 or k == 0:
        return ids, scores
    # Near-equal blocks rather than full blocks plus a small tail: a GEMM of
    # a few rows can round differently from the same rows inside a larger one.
    n_blocks = min(n, -(-n * num_labels * 8 // SCORE_BLOCK_BYTES))
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


def predict_vectors(index: LabelIndex, q_vecs: np.ndarray, k: int) -> list:
    """Ranked (label_ids, scores) per query row."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if q_vecs.shape[1] != index.vectors.shape[1]:
        raise ConfigError(
            f"query dim {q_vecs.shape[1]} != index dim {index.vectors.shape[1]}")
    return list(zip(*topk(q_vecs, index.vectors, k)))


def predict(index: LabelIndex, params: ModelParams, texts: list,
            vocab: Vocabulary, k: int) -> list:
    """Embed texts and return ranked (label_ids, scores) per query."""
    return predict_vectors(index, query_vectors(params, texts, vocab, index.mode), k)


def write_predictions(path: str, results: list,
                      query_ids: list | None = None) -> None:
    """TSV rows: query_id, rank (1-based), label_id, score; replaced atomically."""
    ids = query_ids if query_ids is not None else range(len(results))
    lines = []
    for qid, (labels, scores) in zip(ids, results):
        # Python ints and floats print as the numpy scalars do, only faster
        pairs = zip(np.asarray(labels).tolist(),
                    np.asarray(scores, dtype=np.float64).tolist())
        lines += [f"{qid}\t{rank}\t{lab}\t{sc!r}\n"
                  for rank, (lab, sc) in enumerate(pairs, start=1)]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def read_predictions(path: str) -> dict[int, list[tuple[int, float]]]:
    """Parse a predictions TSV into ranked per-query lists."""
    rows: dict[int, list[tuple[int, int, float]]] = {}
    # Undecodable bytes become U+FFFD, which no number parses: a ConfigError.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ConfigError(
                    f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                qid, rank, lab = int(parts[0]), int(parts[1]), int(parts[2])
                score = float(parts[3])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            rows.setdefault(qid, []).append((rank, lab, score))
    out = {}
    for qid, triples in rows.items():
        triples.sort()
        out[qid] = [(lab, score) for _, lab, score in triples]
    return out
