"""Label indexing and top-k prediction in three scoring modes.

* ``de``: unit retrieval embeddings on both sides (cosine).
* ``clf``: normalized classifier rows scored against the normalized
  classifier-head query embedding.
* ``concat``: both vectors concatenated per side, so every label's score is
  exactly its de score plus its clf score (rows have norm sqrt(2)).

Prediction, evaluation and hard-negative mining all rank labels with
``topk``, an exact scan that scores (query block x label tile) pairs of
bounded size, so memory grows with neither the number of queries nor the
number of labels.  Labels are cut into tiles only where a block with every
label would hold fewer than ``MIN_BLOCK_ROWS`` queries.  Within a tile, a
row's k-th largest group maximum is a threshold at or below its k-th best
score, so the few entries at or above it hold the exact top k; only those
are sorted.  Vectors must be finite, or ``topk`` raises; scores are
finite unless ``exclude`` makes them -inf.  Ties always resolve toward the
lower label id.
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

# Bytes of float64 scores one (query block x label tile) of ``topk`` may
# hold.  Its candidate mask takes a byte per score more.
SCORE_BLOCK_BYTES = 2 << 20
# Fewest query rows a block of ``topk`` keeps before the labels are cut into
# tiles: a block of fewer rows turns the scoring GEMM into a matrix-vector
# product that re-reads every label vector.  2 MB holds 64 rows of 4096
# scores, so at L <= 4096 the blocks are the untiled ones and one tile.
MIN_BLOCK_ROWS = 64
# Column groups per wanted label in ``_select``: more groups give a tighter
# threshold and fewer candidates, but cost a wider group-maximum matrix.
GROUPS_PER_K = 8
# A row with more than this many candidates per wanted label is ranked on
# its own rather than widening the block's padded sort.
MAX_CANDIDATES_PER_K = 4


@dataclass
class LabelIndex:
    mode: str
    vectors: np.ndarray              # (L, d) or (L, 2d)


def _check_modes(modes) -> None:
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    """Rows of ``x`` scaled to unit norm.  Rows whose norm is zero or not
    finite (say it overflowed) raise, naming ``what``."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms.ravel()) & (norms.ravel() > 0.0)))
    if bad.size:
        raise DegenerateEmbeddingError(
            f"zero or non-finite norm in {what} {bad.tolist()}")
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


def _select(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and scores of each row's ``k`` best entries of the score
    tile ``s`` (``k <= s.shape[1]``), by (score descending, column
    ascending).

    The columns fall into ``g`` groups, the residues mod ``g``, and ``t`` is
    a row's k-th largest group maximum.  k different groups each hold a
    score >= ``t``, so ``t`` is at most the row's k-th best score: every
    entry of the exact top k, every tie at the k-th score included, is a
    candidate ``s >= t``.  Candidates keep their column order, so a stable
    sort of their negated scores ranks ties toward the lower column.
    """
    rows, width = s.shape
    groups = min(GROUPS_PER_K * k, width // 2)
    thresh = np.full(rows, -np.inf)
    if groups > k:
        full = width - width % groups
        gmax = s[:, :full].reshape(rows, -1, groups).max(axis=1)
        tail = gmax[:, :width - full]
        np.maximum(tail, s[:, full:], out=tail)
        thresh = np.partition(gmax, groups - k, axis=1)[:, groups - k]
    flat = np.flatnonzero(s >= thresh[:, None])
    row, col = np.divmod(flat, width)
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    # A row of ties, or with fewer than k finite scores (t = -inf), keeps
    # many candidates; it is ranked alone so the padded sort stays narrow.
    alone = counts > MAX_CANDIDATES_PER_K * k
    padded = ~alone[row]
    pos = np.arange(flat.size) - np.repeat(starts, counts)
    at = row[padded], pos[padded]
    pad = max(k, int(counts[~alone].max(initial=0)))
    neg = np.full((rows, pad), np.inf)
    neg[at] = -s.ravel()[flat[padded]]
    cols = np.zeros((rows, pad), dtype=np.int64)
    cols[at] = col[padded]
    order = np.argsort(neg, axis=1, kind="stable")[:, :k]
    ids = np.take_along_axis(cols, order, axis=1)
    for r in np.flatnonzero(alone):
        cand = col[starts[r]:starts[r] + counts[r]]
        ids[r] = cand[np.argsort(-s[r, cand], kind="stable")[:k]]
    return ids, np.take_along_axis(s, ids, axis=1)


def topk(q_vecs: np.ndarray, l_vecs: np.ndarray, k: int,
         exclude: sp.csr_matrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of the ``min(k, L)`` best labels per query, best first.

    Scores are inner products ``q_vecs @ l_vecs.T``; where the (N, L) CSR
    mask ``exclude`` has an entry, the score is -inf.  A row of either
    matrix with a NaN or an infinity raises ``DegenerateEmbeddingError``.
    Equal scores rank the lower label id first, exactly as a stable argsort
    of each row would.

    Queries are scored in near-equal row blocks of at most about
    ``SCORE_BLOCK_BYTES`` of scores each.  When that would leave fewer than
    ``MIN_BLOCK_ROWS`` rows per block, blocks keep that many rows and the
    labels are cut into near-equal tiles whose scores fit the budget.  Each
    tile's k best (see ``_select``) are merged in label order by one stable
    sort per row, which with one tile is the identity.
    """
    for what, vecs in (("query", q_vecs), ("label", l_vecs)):
        bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
        if bad.size:
            raise DegenerateEmbeddingError(
                f"non-finite {what} vector in row {bad[0]}")
    n, num_labels = q_vecs.shape[0], l_vecs.shape[0]
    k = min(k, num_labels)
    ids = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k))
    if n == 0 or k == 0:
        return ids, scores
    # Near-equal blocks rather than full blocks plus a small tail: a GEMM of
    # a few rows can round differently from the same rows inside a larger one.
    n_blocks = min(n, -(-n * num_labels * 8 // SCORE_BLOCK_BYTES))
    n_tiles = 1
    if n_blocks > 1 and n // n_blocks < MIN_BLOCK_ROWS:
        n_blocks = -(-n // MIN_BLOCK_ROWS)
        tile = max(1, SCORE_BLOCK_BYTES // (8 * -(-n // n_blocks)))
        n_tiles = -(-num_labels // tile)
    edges = np.arange(n_tiles + 1) * num_labels // n_tiles
    start = 0
    for block in np.array_split(q_vecs, n_blocks):
        stop = start + block.shape[0]
        if exclude is not None:
            ptr = exclude.indptr[start:stop + 1]
            ex_rows = np.repeat(np.arange(stop - start), np.diff(ptr))
            ex_cols = exclude.indices[ptr[0]:ptr[-1]]
        parts = []
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
            s = block @ l_vecs[lo:hi].T
            if exclude is not None:
                inside = (ex_cols >= lo) & (ex_cols < hi)
                s[ex_rows[inside], ex_cols[inside] - lo] = -np.inf
            tile_ids, tile_scores = _select(s, min(k, hi - lo))
            parts.append((tile_ids + lo, tile_scores))
        block_ids, block_scores = (np.hstack(p) for p in zip(*parts))
        if n_tiles > 1:
            order = np.argsort(-block_scores, axis=1, kind="stable")[:, :k]
            block_ids = np.take_along_axis(block_ids, order, axis=1)
            block_scores = np.take_along_axis(block_scores, order, axis=1)
        ids[start:stop], scores[start:stop] = block_ids, block_scores
        start = stop
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
