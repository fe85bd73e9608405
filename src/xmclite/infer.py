"""Label indexing and top-k prediction in three scoring modes.

* ``de``: unit retrieval embeddings on both sides (cosine).
* ``clf``: normalized classifier rows scored against the normalized
  classifier-head query embedding.
* ``concat``: both vectors concatenated per side, so every label's score is
  exactly its de score plus its clf score (rows have norm sqrt(2)).

Label and query vectors come from ``embed_rows``, which embeds fixed row
blocks into one preallocated array per side: ``concat`` is that array, and
``de`` and ``clf`` are views of its halves, so a pass holds its vectors
once plus one block's forward, bitwise as one forward over every row.

Prediction, evaluation and hard-negative mining all rank labels with
``topk``, an exact scan that scores (query block x label tile) pairs of
bounded size, so memory grows with neither the number of queries nor the
number of labels.  Labels are cut into tiles only where a block with every
label would hold fewer than ``MIN_BLOCK_ROWS`` queries.  With one BLAS
thread, as determinism needs, the query blocks are ranked on threads, one
per core the process may use.  The cuts depend on the shapes alone, so
the results are bitwise the same for any number of cores.  Within a tile, a
row's k-th largest group maximum is a threshold at or below its k-th best
score, so the few entries at or above it hold the exact top k; only those
are sorted.  Vectors must be finite, or ``topk`` raises; scores are
finite unless ``exclude`` makes them -inf.  Ties always resolve toward the
lower label id.
"""

from __future__ import annotations

import bisect
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Dataset, Vocabulary, featurize_all
from .errors import ConfigError, DegenerateEmbeddingError
from .fileio import atomic_open
from .model import BLOCK_ROWS, ModelParams, forward

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
# Queries whose prediction rows ``write_predictions`` formats per write.
WRITE_CHUNK_QUERIES = 1024
# Thread-count variables of the BLAS runtimes numpy may load (OpenBLAS,
# MKL, BLIS, Accelerate); each reads its own before ``OMP_NUM_THREADS``.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class LabelIndex:
    mode: str
    vectors: np.ndarray              # (L, d) or (L, 2d)


def _check_modes(modes) -> None:
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _unit_rows(x: np.ndarray, what: str, out: np.ndarray | None = None,
               first_row: int = 0) -> np.ndarray:
    """Rows of ``x`` scaled to unit norm, into ``out`` when given.  Rows
    whose norm is zero or not finite (say it overflowed) raise, naming
    ``what`` and the row indices counted from ``first_row``."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms.ravel()) & (norms.ravel() > 0.0)))
    if bad.size:
        raise DegenerateEmbeddingError(
            f"zero or non-finite norm in {what} {(bad + first_row).tolist()}")
    return np.divide(x, norms, out=out)


def _block_edges(n: int) -> list:
    """Row edges of the blocks of an ``embed_rows`` pass over ``n`` rows."""
    edges = list(range(0, n, max(2, BLOCK_ROWS))) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]                  # a one-row tail joins its predecessor
    return edges


def embed_rows(params: ModelParams, parts: tuple,
               feats: sp.csr_matrix | None = None) -> np.ndarray:
    """Unit vectors of ``parts`` side by side, one row per input row, in one
    (rows, len(parts) * search_dim) array.

    A part is ``"de"`` or ``"clf"``, that head's vectors from the eval
    forward of ``feats``, or ``"classifiers"``, the classifier table's rows,
    which need no ``feats``.  The rows go through ``forward`` and the
    normalization ``BLOCK_ROWS`` at a time, straight into the output,
    so a pass holds one block's temporaries besides it.  No block has one
    row unless the pass has: numpy computes a one-row product as a
    matrix-vector product, which can round differently from the same row
    inside a matrix product.  Every other row of the forward is computed
    alone, so each row is bitwise what one forward over all rows gives.
    Degenerate rows raise ``DegenerateEmbeddingError`` naming their indices
    in the pass.
    """
    heads = tuple(part for part in parts if part != "classifiers")
    n = feats.shape[0] if feats is not None else params.num_labels
    d = params.search_dim
    out = np.empty((n, d * len(parts)))
    edges = _block_edges(n)
    for lo, hi in zip(edges, edges[1:]):
        trace = forward(params, feats[lo:hi], mode="eval", heads=heads,
                        first_row=lo) if heads else None
        for j, part in enumerate(parts):
            dst = out[lo:hi, j * d:(j + 1) * d]
            if part == "de":
                dst[...] = trace.de_out
            elif part == "clf":
                _unit_rows(trace.clf_out,
                           "classifier-head embeddings for queries", dst, lo)
            else:
                _unit_rows(params.classifiers[lo:hi],
                           "classifier rows for labels", dst, lo)
    return out


def _by_mode(modes, vecs: np.ndarray, d: int) -> dict:
    """Each mode's vectors from one side's ``embed_rows`` array: ``concat``
    is all of it, ``de`` its first ``d`` columns and ``clf`` its last."""
    width = vecs.shape[1]
    return {mode: vecs if mode == "concat" else vecs[:, :d] if mode == "de"
            else vecs[:, width - d:] for mode in modes}


def _parts(modes, clf_part: str) -> tuple:
    """``embed_rows`` parts for ``modes``: ``"de"`` when a mode reads the
    retrieval vectors, then ``clf_part`` when one reads the classifier's."""
    _check_modes(modes)
    return tuple(part for part, other in (("de", "clf"), (clf_part, "de"))
                 if any(mode != other for mode in modes))


def label_vectors_by_mode(params: ModelParams, dataset: Dataset,
                          modes=MODES) -> dict:
    """Label vectors of each of ``modes`` from one ``embed_rows`` pass: the
    label texts are embedded at most once, and without ``clf`` or ``concat``
    the classifier rows are not read.  The modes share one array, so
    ``de`` and ``clf`` are views of ``concat``'s halves."""
    parts = _parts(modes, "classifiers")
    feats = featurize_all(dataset.label_texts, dataset.vocab) \
        if "de" in parts else None
    return _by_mode(modes, embed_rows(params, parts, feats), params.search_dim)


def query_vectors_by_mode(params: ModelParams, texts: list, vocab: Vocabulary,
                          modes=MODES) -> dict:
    """Query vectors of each of ``modes`` from one featurize and one
    ``embed_rows`` pass through the heads those modes need (eval,
    deterministic); the modes share one array, as the label vectors do."""
    parts = _parts(modes, "clf")
    return _by_mode(modes,
                    embed_rows(params, parts, featurize_all(texts, vocab)),
                    params.search_dim)


def label_vectors(params: ModelParams, dataset: Dataset, mode: str) -> np.ndarray:
    return label_vectors_by_mode(params, dataset, (mode,))[mode]


def build_index(params: ModelParams, dataset: Dataset,
                mode: str = "concat") -> LabelIndex:
    return LabelIndex(mode, label_vectors(params, dataset, mode))


def query_vectors(params: ModelParams, texts: list, vocab: Vocabulary,
                  mode: str) -> np.ndarray:
    """Embed query texts for the given scoring mode (eval, deterministic)."""
    return query_vectors_by_mode(params, texts, vocab, (mode,))[mode]


def scan_threads() -> int:
    """Threads a ``topk`` scan may use.  With one BLAS thread, as
    determinism needs, that is every core this process may run on: its CPU
    affinity where the platform reports one, else the machine's core count.
    Otherwise it is one, because each GEMM already spreads over the cores
    and concurrent ones contend for them (on 2 cores, two scan threads of
    two BLAS threads each took 15-35% longer than one).  BLAS runs one
    thread when the first of ``BLAS_THREAD_VARS`` that is set, else
    ``OMP_NUM_THREADS``, reads 1."""
    blas = next((os.environ[var] for var in BLAS_THREAD_VARS
                 if var in os.environ), os.environ.get("OMP_NUM_THREADS"))
    if blas is None or blas.strip() != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _select(s: np.ndarray, k: int,
            mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and scores of each row's ``k`` best entries of the score
    tile ``s`` (``k <= s.shape[1]``), by (score descending, column
    ascending).  ``mask``, a bool array of the shape of ``s``, is
    overwritten with the candidates.

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
    np.greater_equal(s, thresh[:, None], out=mask)
    flat = np.flatnonzero(mask)
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
    matrix with a NaN or an infinity raises ``DegenerateEmbeddingError``; an
    ``exclude`` that is not a CSR matrix of shape (N, L) raises
    ``ValueError``.  Equal scores rank the lower label id first, exactly as
    a stable argsort of each row would.

    Queries are scored in near-equal row blocks of at most about
    ``SCORE_BLOCK_BYTES`` of scores each.  When that would leave fewer than
    ``MIN_BLOCK_ROWS`` rows per block, blocks keep that many rows and the
    labels are cut into near-equal tiles whose scores fit the budget.  Each
    tile's k best (see ``_select``) are merged in label order by one stable
    sort per row, which with one tile is the identity.

    Each query block, its tiles and their merge, is one unit of work.  The
    units run on ``scan_threads()`` threads, at most one per block, the
    calling thread among them: thread ``w`` takes blocks ``w``, ``w +
    threads``, ...  A scan of one block, or with one scan thread, starts
    no thread.
    Each thread scores into its own tile and candidate mask, which the
    calling thread allocates once per call, and writes only its blocks'
    rows of the result.  The cuts depend on the shapes alone, so the result
    is bitwise the same for any thread count or schedule.  An exception in
    a unit is raised from ``topk`` once every thread has ended.
    """
    for what, vecs in (("query", q_vecs), ("label", l_vecs)):
        bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
        if bad.size:
            raise DegenerateEmbeddingError(
                f"non-finite {what} vector in row {bad[0]}")
    n, num_labels = q_vecs.shape[0], l_vecs.shape[0]
    if exclude is not None and not (sp.issparse(exclude)
                                    and exclude.format == "csr"
                                    and exclude.shape == (n, num_labels)):
        raise ValueError(
            f"exclude must be a CSR matrix of shape {(n, num_labels)}, got "
            f"{type(exclude).__name__} of shape "
            f"{getattr(exclude, 'shape', None)}")
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
    blocks = np.array_split(q_vecs, n_blocks)
    starts = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    edges = (np.arange(n_tiles + 1) * num_labels // n_tiles).tolist()
    workers = min(scan_threads(), n_blocks)
    tile_size = len(blocks[0]) * -(-num_labels // n_tiles)
    scratch = [(np.empty(tile_size), np.empty(tile_size, dtype=bool))
               for _ in range(workers)]

    def scan(first, buf, mask):
        """Rank blocks ``first``, ``first + workers``, ... into the result."""
        for block, start, stop in zip(blocks[first::workers],
                                      starts[first::workers],
                                      starts[first + 1::workers]):
            if exclude is not None:
                ptr = exclude.indptr[start:stop + 1]
                ex_rows = np.repeat(np.arange(stop - start), np.diff(ptr))
                ex_cols = exclude.indices[ptr[0]:ptr[-1]]
            parts = []
            for lo, hi in zip(edges, edges[1:]):
                s = buf[:block.shape[0] * (hi - lo)].reshape(-1, hi - lo)
                np.matmul(block, l_vecs[lo:hi].T, out=s)
                if exclude is not None:
                    inside = (ex_cols >= lo) & (ex_cols < hi)
                    s[ex_rows[inside], ex_cols[inside] - lo] = -np.inf
                tile_ids, tile_scores = _select(
                    s, min(k, hi - lo), mask[:s.size].reshape(s.shape))
                parts.append((tile_ids + lo, tile_scores))
            block_ids, block_scores = (np.hstack(p) for p in zip(*parts))
            if n_tiles > 1:
                order = np.argsort(-block_scores, axis=1, kind="stable")[:, :k]
                block_ids = np.take_along_axis(block_ids, order, axis=1)
                block_scores = np.take_along_axis(block_scores, order, axis=1)
            ids[start:stop], scores[start:stop] = block_ids, block_scores

    if workers == 1:
        scan(0, *scratch[0])
        return ids, scores
    # The calling thread works too: one thread fewer to start, and one
    # malloc arena fewer that keeps a unit's temporaries after the scan.
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(scan, w, *scratch[w])
                   for w in range(1, workers)]
        scan(0, *scratch[0])
    for helper in helpers:
        helper.result()
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


def write_predictions(path: str, results: list) -> None:
    """TSV rows: query_id (the row's position in ``results``), rank
    (1-based), label_id, score; replaced atomically.  Rows are formatted
    and written ``WRITE_CHUNK_QUERIES`` queries at a time, so the text of
    one chunk is held at once, not that of the file."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for first in range(0, len(results), WRITE_CHUNK_QUERIES):
            lines = []
            for qid, (labels, scores) in enumerate(
                    results[first:first + WRITE_CHUNK_QUERIES], start=first):
                # Python ints and floats print as the numpy scalars do, only
                # faster
                pairs = zip(np.asarray(labels).tolist(),
                            np.asarray(scores, dtype=np.float64).tolist())
                lines += [f"{qid}\t{rank}\t{lab}\t{sc!r}\n"
                          for rank, (lab, sc) in enumerate(pairs, start=1)]
            fh.write("".join(lines))


def read_predictions(path: str) -> dict[int, list[tuple[int, float]]]:
    """Parse a predictions TSV into ranked per-query lists.

    Ranks start at 1 and each appears at most once per query; gaps are
    allowed.  Each query's list is built as its rows arrive, each row put
    in place by a binary search of the query's ranks so far.
    """
    rows: dict[int, list[tuple[int, float]]] = {}
    ranks: dict[int, list[int]] = {}
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
            if rank < 1:
                raise ConfigError(f"{path}:{lineno}: rank {rank} is below 1")
            ranked, seen = rows.setdefault(qid, []), ranks.setdefault(qid, [])
            at = bisect.bisect_left(seen, rank)
            if at < len(seen) and seen[at] == rank:
                raise ConfigError(
                    f"{path}:{lineno}: query {qid} has rank {rank} twice")
            seen.insert(at, rank)
            ranked.insert(at, (lab, score))
    return rows
