"""Label indexing and top-k prediction in three scoring modes.

* ``de``: unit retrieval embeddings on both sides (cosine).
* ``clf``: normalized classifier rows scored against the normalized
  classifier-head query embedding.
* ``concat``: both vectors concatenated per side, so every label's score is
  exactly its de score plus its clf score (rows have norm sqrt(2)).

Search is an exact scan by default; the HNSW index is an optional stand-in.
Ties always resolve toward the lower label id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Vocabulary, featurize_all
from .errors import ConfigError, DegenerateEmbeddingError
from .fileio import atomic_open
from .hnsw import HnswIndex, build_hnsw, search_hnsw
from .model import ModelParams, forward

MODES = ("de", "clf", "concat")


@dataclass
class LabelIndex:
    mode: str
    vectors: np.ndarray              # (L, d) or (L, 2d)
    exact: bool = True
    ann: HnswIndex | None = None


def _normalized_classifier_rows(params: ModelParams) -> np.ndarray:
    norms = np.linalg.norm(params.classifiers, axis=1, keepdims=True)
    bad = np.flatnonzero(norms.ravel() == 0.0)
    if bad.size:
        raise DegenerateEmbeddingError(
            f"classifier rows with zero norm for labels {bad.tolist()}")
    return params.classifiers / norms


def label_vectors(params: ModelParams, dataset: Dataset, mode: str) -> np.ndarray:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "clf":
        return _normalized_classifier_rows(params)
    feats = featurize_all(dataset.label_texts, dataset.vocab)
    de_rows = forward(params, feats, mode="eval", heads=("de",)).de_out
    if mode == "de":
        return de_rows
    return np.hstack([de_rows, _normalized_classifier_rows(params)])


def build_index(params: ModelParams, dataset: Dataset, mode: str = "concat",
                exact: bool = True, hnsw_seed: int = 0) -> LabelIndex:
    vectors = label_vectors(params, dataset, mode)
    ann = None if exact else build_hnsw(vectors, seed=hnsw_seed)
    return LabelIndex(mode, vectors, exact, ann)


def query_vectors(params: ModelParams, texts: list, vocab: Vocabulary,
                  mode: str) -> np.ndarray:
    """Embed query texts for the given scoring mode (eval, deterministic)."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    feats = featurize_all(texts, vocab)
    heads = ("de",) if mode == "de" else (("clf",) if mode == "clf" else ("de", "clf"))
    trace = forward(params, feats, mode="eval", heads=heads)
    if mode == "de":
        return trace.de_out
    clf = trace.clf_out
    norms = np.linalg.norm(clf, axis=1, keepdims=True)
    bad = np.flatnonzero(norms.ravel() == 0.0)
    if bad.size:
        raise DegenerateEmbeddingError(
            f"zero-norm classifier-head embedding for queries {bad.tolist()}")
    clf = clf / norms
    if mode == "clf":
        return clf
    return np.hstack([trace.de_out, clf])


def top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and scores of the k largest entries, ties toward lower index."""
    k = min(k, scores.shape[-1])
    order = np.argsort(-scores, kind="stable")[:k]
    return order.astype(np.int64), scores[order]


def predict_vectors(index: LabelIndex, q_vecs: np.ndarray, k: int) -> list:
    """Ranked (label_ids, scores) per query row."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if q_vecs.shape[1] != index.vectors.shape[1]:
        raise ConfigError(
            f"query dim {q_vecs.shape[1]} != index dim {index.vectors.shape[1]}")
    out = []
    if index.exact:
        scores = q_vecs @ index.vectors.T
        for row in scores:
            out.append(top_k(row, k))
    else:
        for q in q_vecs:
            ids = search_hnsw(index.ann, q, min(k, index.vectors.shape[0]))
            got = index.vectors[ids] @ q
            order = np.lexsort((ids, -got))
            out.append((ids[order], got[order]))
    return out


def predict(index: LabelIndex, params: ModelParams, texts: list,
            vocab: Vocabulary, k: int) -> list:
    """Embed texts and return ranked (label_ids, scores) per query."""
    return predict_vectors(index, query_vectors(params, texts, vocab, index.mode), k)


def write_predictions(path: str, results: list,
                      query_ids: list | None = None) -> None:
    """TSV rows: query_id, rank (1-based), label_id, score; replaced atomically."""
    ids = query_ids if query_ids is not None else range(len(results))
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for qid, (labels, scores) in zip(ids, results):
            for rank, (lab, sc) in enumerate(zip(labels, scores), start=1):
                fh.write(f"{qid}\t{rank}\t{lab}\t{float(sc)!r}\n")


def read_predictions(path: str) -> dict[int, list[tuple[int, float]]]:
    """Parse a predictions TSV into ranked per-query lists."""
    rows: dict[int, list[tuple[int, int, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
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
