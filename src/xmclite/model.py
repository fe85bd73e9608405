"""Bag-of-tokens encoder with two heads and a per-label classifier table.

The shared encoder is a token-embedding mean: its input rows are token
counts already scaled to sum 1 (``data.featurize_all``), so the encoding of a
row ``x`` is ``x @ embed``.  Two heads project encodings into the
retrieval space: the retrieval head applies ``tanh(enc @ de_w + de_b)``,
dropout (train mode), then L2 normalization; the classifier head applies
``enc @ clf_w + clf_b`` and dropout with no normalization.  A separate
``classifiers`` table holds one trainable vector per label.

Parameters are float64 by default so analytic gradients can be validated
with central finite differences; ``train`` keeps its own in float32, and
every array of the forward, the backward and the step follows the
parameters' dtype (feature rows of another dtype promote the encoding, so
a float32 pass takes float32 rows).  ``forward`` caches all intermediates
needed by ``backward``, the train-mode dropout masks among them;
``backward`` takes every trace of a training step and builds the embedding
gradient rows in one pass.  Masks are drawn only from the pass's rng, so a
generator seeded alike replays a pass bit-identically (as finite-difference
checks need).

Initialization, checkpoint saves and checkpoint loads each hold one copy of
the parameter tables: tables are read in place, every table is written
``BLOCK_ROWS`` rows at a time, and a table of another dtype than float64
is drawn ``BLOCK_ROWS`` rows at a time, so none is ever copied whole.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateEmbeddingError
from .fileio import atomic_open

CHECKPOINT_MAGIC = b"XMCLITE1"
ROW_TABLES = ("embed", "classifiers")  # lookup tables with row-sparse grads
# Rows per block wherever a pass over rows is cut to bound its memory: a
# table drawn in another dtype than float64, a table written to a checkpoint,
# and an ``infer.embed_rows`` pass.  2 MB of float64 at width 64.
BLOCK_ROWS = 4096


@dataclass
class ModelParams:
    embed: np.ndarray        # (hash_dim, encoder_dim)
    de_w: np.ndarray         # (encoder_dim, search_dim)
    de_b: np.ndarray         # (search_dim,)
    clf_w: np.ndarray        # (encoder_dim, search_dim)
    clf_b: np.ndarray        # (search_dim,)
    classifiers: np.ndarray  # (num_labels, search_dim)
    dropout: float = 0.1

    @property
    def hash_dim(self) -> int:
        return self.embed.shape[0]

    @property
    def encoder_dim(self) -> int:
        return self.embed.shape[1]

    @property
    def search_dim(self) -> int:
        return self.de_w.shape[1]

    @property
    def num_labels(self) -> int:
        return self.classifiers.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"embed": self.embed, "de_w": self.de_w, "de_b": self.de_b,
                "clf_w": self.clf_w, "clf_b": self.clf_b,
                "classifiers": self.classifiers}

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.arrays().items()},
                           dropout=self.dropout)

    def astype(self, dtype) -> "ModelParams":
        """A copy with every table cast to ``dtype``."""
        return ModelParams(**{k: v.astype(dtype)
                              for k, v in self.arrays().items()},
                           dropout=self.dropout)


def init_params(hash_dim: int, encoder_dim: int, search_dim: int,
                num_labels: int, seed: int = 0, dropout: float = 0.1,
                dtype=np.float64) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; biases start at zero.

    The values are float64 draws.  In float64 each table is drawn straight
    into its array; in any other dtype it is drawn ``BLOCK_ROWS`` rows
    at a time into its array, which continues the same stream, so the values
    are those of one draw cast whole.  Either way an init holds the tables it
    returns and at most one block besides."""
    if min(hash_dim, encoder_dim, search_dim, num_labels) < 1:
        raise ConfigError("all model dimensions must be >= 1")
    if not 0.0 <= dropout <= 1.0:
        raise ConfigError(f"dropout must be in [0, 1], got {dropout}")
    rng = np.random.default_rng([seed, 0])

    def uniform(shape, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        if np.dtype(dtype) == np.float64:
            return rng.uniform(-lim, lim, size=shape)
        table = np.empty(shape, dtype=dtype)
        for lo in range(0, shape[0], BLOCK_ROWS):
            block = table[lo:lo + BLOCK_ROWS]
            block[...] = rng.uniform(-lim, lim, size=block.shape)
        return table

    return ModelParams(
        embed=uniform((hash_dim, encoder_dim), encoder_dim),
        de_w=uniform((encoder_dim, search_dim), encoder_dim),
        de_b=np.zeros(search_dim, dtype=dtype),
        clf_w=uniform((encoder_dim, search_dim), encoder_dim),
        clf_b=np.zeros(search_dim, dtype=dtype),
        classifiers=uniform((num_labels, search_dim), search_dim),
        dropout=float(dropout),
    )


@dataclass
class ForwardTrace:
    """Cached activations from one forward pass (inputs to ``backward``)."""

    feats: sp.csr_matrix              # input rows, as ``featurize_all`` gives
    enc: np.ndarray
    de_act: np.ndarray | None = None  # tanh output, pre-dropout
    de_mask: np.ndarray | None = None
    de_norm: np.ndarray | None = None  # (n, 1) row norms
    de_out: np.ndarray | None = None   # unit rows
    clf_mask: np.ndarray | None = None
    clf_out: np.ndarray | None = None


def _dropout_mask(shape, rate: float, rng: np.random.Generator,
                  dtype=np.float64) -> np.ndarray:
    if rate >= 1.0:
        return np.zeros(shape, dtype=dtype)
    # Inverted dropout: keep with prob 1-rate, scale kept units by 1/(1-rate).
    # The draws are float64 in every dtype, so a dtype keeps the masks.
    return np.divide(rng.random(shape) >= rate, 1.0 - rate, dtype=dtype)


def _dropout(x: np.ndarray, train: bool, rate: float,
             rng: np.random.Generator | None):
    """``(x * mask, mask)`` with the mask drawn from ``rng``; ``(x, None)``
    outside train mode."""
    if not train:
        return x, None
    if rng is None:
        raise ValueError("train-mode forward needs an rng")
    mask = _dropout_mask(x.shape, rate, rng, x.dtype)
    return x * mask, mask


def forward(params: ModelParams, feats: sp.csr_matrix, mode: str = "eval",
            rng: np.random.Generator | None = None,
            heads: tuple = ("de", "clf"), first_row: int = 0) -> ForwardTrace:
    """Run encoder + requested heads over an (n, hash_dim) block of input
    rows (``featurize_all`` rows, or slices of them).

    In train mode, dropout masks are drawn from ``rng``, retrieval head first,
    then classifier head.  A zero-norm retrieval vector raises
    ``DegenerateEmbeddingError`` naming its rows counted from ``first_row``,
    the block's first row in a pass over a larger matrix.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    enc = np.asarray(feats @ params.embed)
    trace = ForwardTrace(feats=feats, enc=enc)
    train = mode == "train" and params.dropout > 0.0

    if "de" in heads:
        act = np.tanh(enc @ params.de_w + params.de_b)
        trace.de_act = act
        kept, trace.de_mask = _dropout(act, train, params.dropout, rng)
        norms = np.linalg.norm(kept, axis=-1, keepdims=True)
        bad = np.flatnonzero(norms.ravel() == 0.0)
        if bad.size:
            raise DegenerateEmbeddingError(
                f"zero-norm vector before normalization at rows "
                f"{(bad + first_row).tolist()}")
        trace.de_norm = norms
        trace.de_out = kept / norms

    if "clf" in heads:
        trace.clf_out, trace.clf_mask = _dropout(
            enc @ params.clf_w + params.clf_b, train, params.dropout, rng)

    return trace


@dataclass
class Grads:
    """Parameter gradients.

    The lookup tables ``embed`` and ``classifiers`` are row-sparse: each is a
    ``(row_ids, rows)`` pair of sorted unique int64 row ids and their gradient
    rows; rows it does not name have zero gradient.  Head groups are dense.
    """

    embed: tuple
    de_w: np.ndarray
    de_b: np.ndarray
    clf_w: np.ndarray
    clf_b: np.ndarray
    classifiers: tuple

    def arrays(self) -> dict[str, np.ndarray]:
        """Gradient values by group; the row tables give only their rows."""
        return {"embed": self.embed[1], "de_w": self.de_w, "de_b": self.de_b,
                "clf_w": self.clf_w, "clf_b": self.clf_b,
                "classifiers": self.classifiers[1]}

    def scale_(self, factor: float) -> "Grads":
        for v in self.arrays().values():
            v *= factor
        return self

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(v * v))
                                 for v in self.arrays().values())))


def zero_grads(params: ModelParams) -> Grads:
    """Empty row-table pairs and zeroed head groups."""
    groups = {k: (np.zeros(0, np.int64), v[:0].copy()) if k in ROW_TABLES
              else np.zeros_like(v) for k, v in params.arrays().items()}
    return Grads(**groups)


def backward(params: ModelParams,
             terms: list[tuple[ForwardTrace, np.ndarray | None, np.ndarray | None]],
             out: Grads | None = None) -> Grads:
    """Exact parameter gradients of one step, from all of its traces.

    ``terms`` holds ``(trace, d_de, d_clf)``: loss gradients w.r.t. that
    trace's head outputs, or None.  Only the embedding table and the heads
    get gradients; head gradients add up in term order.  One ``np.unique``
    of the feature columns of the terms with a gradient names the embedding
    rows, which start at zero and add each term's ``feats.T @ d_enc`` in
    term order.  The classifier table is not part of a trace: the training
    step sets its gradient rows itself.  ``out`` must come fresh from
    ``zero_grads``: the heads add into it, and its embedding pair is set.
    """
    g = out if out is not None else zero_grads(params)
    blocks = []                     # (feats, d_enc) of terms with a gradient
    for trace, d_de, d_clf in terms:
        if d_de is None and d_clf is None:
            continue
        d_enc = np.zeros_like(trace.enc)
        if d_de is not None:
            if trace.de_out is None:
                raise ValueError("trace has no retrieval-head activations")
            if d_de.shape != trace.de_out.shape:
                raise ValueError(f"d_de shape {d_de.shape} != {trace.de_out.shape}")
            u, r = trace.de_out, trace.de_norm
            # y = t/||t||  =>  dt = (dy - y (dy.y)) / ||t||
            d_kept = (d_de - u * np.sum(d_de * u, axis=-1, keepdims=True)) / r
            d_act = d_kept * trace.de_mask if trace.de_mask is not None else d_kept
            d_pre = d_act * (1.0 - trace.de_act ** 2)
            g.de_w += trace.enc.T @ d_pre
            g.de_b += d_pre.sum(axis=0)
            d_enc += d_pre @ params.de_w.T
        if d_clf is not None:
            if trace.clf_out is None:
                raise ValueError("trace has no classifier-head activations")
            if d_clf.shape != trace.clf_out.shape:
                raise ValueError(f"d_clf shape {d_clf.shape} != {trace.clf_out.shape}")
            d_pre = d_clf * trace.clf_mask if trace.clf_mask is not None else d_clf
            g.clf_w += trace.enc.T @ d_pre
            g.clf_b += d_pre.sum(axis=0)
            d_enc += d_pre @ params.clf_w.T
        blocks.append((trace.feats, d_enc))

    if blocks:
        # feats.T @ d_enc over the step's feature columns only: each compact
        # matrix keeps its rows' entry order, so every row sums its terms in
        # the same order as the full-width product.
        cols, local = np.unique(np.concatenate([f.indices for f, _ in blocks]),
                                return_inverse=True)
        rows = np.zeros((cols.size, params.encoder_dim), dtype=params.embed.dtype)
        ends = np.cumsum([f.indices.size for f, _ in blocks])
        for (feats, d_enc), at in zip(blocks, np.split(local, ends[:-1])):
            compact = sp.csr_matrix((feats.data, at, feats.indptr),
                                    shape=(feats.shape[0], cols.size))
            rows += compact.T @ d_enc
        g.embed = (cols.astype(np.int64), rows)

    return g


def save_checkpoint(path: str, params: ModelParams,
                    extra: dict | None = None) -> None:
    """One checkpoint file: magic, dims, dropout and the float64 matrices,
    then ``extra`` as compact sorted-key UTF-8 JSON.

    Every matrix is written ``BLOCK_ROWS`` rows at a time as little-endian
    float64, which gives the bytes of a whole-array conversion.  A block of
    a C-contiguous float64 table is written from the table's own buffer,
    and a block of any other is converted alone, so a save holds no copy of
    a table.
    The file is written to a temporary file and renamed into place, so a
    failed save leaves the previous checkpoint loadable.
    """
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<4Qd", params.hash_dim, params.encoder_dim,
                             params.search_dim, params.num_labels,
                             params.dropout))
        for arr in params.arrays().values():   # in file order
            table = np.atleast_2d(arr)   # a view; a bias is one row
            for lo in range(0, len(table), BLOCK_ROWS):
                fh.write(memoryview(np.ascontiguousarray(
                    table[lo:lo + BLOCK_ROWS], dtype="<f8")).cast("B"))
        fh.write(json.dumps(extra or {}, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Validate magic, dims, dropout and finite values and rebuild params;
    returns (params, metadata).  A file that ends with its matrices, as
    files written before the metadata moved in do, has metadata ``{}``.

    Each matrix is read straight into the array returned for it, so a load
    holds the parameters and the metadata bytes, and nothing the size of a
    matrix besides."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(48)
        if head[:8] != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a model checkpoint (bad magic)")
        if len(head) < 48:
            raise ConfigError(f"{path}: truncated checkpoint header "
                              f"({len(head)} of 48 bytes)")
        hash_dim, enc_dim, search_dim, num_labels, dropout = \
            struct.unpack_from("<4Qd", head, 8)
        if min(hash_dim, enc_dim, search_dim, num_labels) == 0:
            raise ConfigError(f"{path}: zero dimension in checkpoint header "
                              f"{[hash_dim, enc_dim, search_dim, num_labels]}")
        if not 0.0 <= dropout <= 1.0:   # NaN fails too
            raise ConfigError(f"{path}: checkpoint dropout {dropout} is not "
                              f"in [0, 1]")
        shapes = [("embed", (hash_dim, enc_dim)),
                  ("de_w", (enc_dim, search_dim)), ("de_b", (search_dim,)),
                  ("clf_w", (enc_dim, search_dim)), ("clf_b", (search_dim,)),
                  ("classifiers", (num_labels, search_dim))]
        expected = 48 + 8 * sum(math.prod(s) for _, s in shapes)
        if size < expected:
            raise ConfigError(
                f"{path}: size {size} is short of what the header dims need "
                f"({expected})")
        fields = {}
        for name, shape in shapes:
            arr = np.empty(shape, dtype="<f8")
            got = fh.readinto(memoryview(arr).cast("B"))
            if got != arr.nbytes:
                raise ConfigError(f"{path}: read {got} of the {arr.nbytes} "
                                  f"bytes of {name}; the file is shorter "
                                  f"than it was")
            # min and max are NaN if any value is, and infinite if any is
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                index = np.unravel_index(np.argmin(np.isfinite(arr)), shape)
                raise ConfigError(f"{path}: non-finite {name} value at index "
                                  f"{tuple(int(i) for i in index)}")
            fields[name] = arr
        tail = fh.read()
    try:
        meta = json.loads(tail.decode("utf-8")) if tail else {}
    except (ValueError, RecursionError) as exc:   # bad UTF-8, bad JSON, too deep
        raise ConfigError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: checkpoint metadata is not a JSON object")
    return ModelParams(**fields, dropout=dropout), meta
