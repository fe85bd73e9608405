"""Bag-of-tokens encoder with two heads and a per-label classifier table.

The shared encoder is a token-embedding mean: its input rows are token
counts already scaled to sum 1 (``data.featurize_all``), so the encoding of a
row ``x`` is ``x @ embed``.  Two heads project encodings into the
retrieval space: the retrieval head applies ``tanh(enc @ de_w + de_b)``,
dropout (train mode), then L2 normalization; the classifier head applies
``enc @ clf_w + clf_b`` and dropout with no normalization.  A separate
``classifiers`` table holds one trainable vector per label.

Everything is float64 by default so analytic gradients can be validated with
central finite differences.  ``forward`` caches all intermediates needed by
``backward``, the train-mode dropout masks among them.  Masks are drawn only
from the pass's rng, so a generator seeded alike replays a pass
bit-identically (as finite-difference checks need).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateEmbeddingError
from .fileio import atomic_open

CHECKPOINT_MAGIC = b"XMCLITE1"
ROW_TABLES = ("embed", "classifiers")  # lookup tables with row-sparse grads


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


def init_params(hash_dim: int, encoder_dim: int, search_dim: int,
                num_labels: int, seed: int = 0, dropout: float = 0.1,
                dtype=np.float64) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; biases start at zero."""
    if min(hash_dim, encoder_dim, search_dim, num_labels) < 1:
        raise ConfigError("all model dimensions must be >= 1")
    if not 0.0 <= dropout <= 1.0:
        raise ConfigError(f"dropout must be in [0, 1], got {dropout}")
    rng = np.random.default_rng([seed, 0])

    def uniform(shape, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape).astype(dtype)

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


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    if rate >= 1.0:
        return np.zeros(shape)
    # Inverted dropout: keep with prob 1-rate, scale kept units by 1/(1-rate).
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _dropout(x: np.ndarray, train: bool, rate: float,
             rng: np.random.Generator | None):
    """``(x * mask, mask)`` with the mask drawn from ``rng``; ``(x, None)``
    outside train mode."""
    if not train:
        return x, None
    if rng is None:
        raise ValueError("train-mode forward needs an rng")
    mask = _dropout_mask(x.shape, rate, rng)
    return x * mask, mask


def forward(params: ModelParams, feats: sp.csr_matrix, mode: str = "eval",
            rng: np.random.Generator | None = None,
            heads: tuple = ("de", "clf")) -> ForwardTrace:
    """Run encoder + requested heads over an (n, hash_dim) block of input
    rows (``featurize_all`` rows, or slices of them).

    In train mode, dropout masks are drawn from ``rng``, retrieval head first,
    then classifier head.
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
                f"zero-norm vector before normalization at rows {bad.tolist()}")
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


def merge_rows(a: tuple, b: tuple) -> tuple:
    """Sum of two ``(row_ids, rows)`` blocks over the union of their ids.

    Each block's ids must be sorted and unique.  Each row adds ``a``'s row,
    then ``b``'s, to zero, as adding both blocks into a zeroed dense table
    would, so the sum is bitwise the dense one.
    """
    row_ids = np.union1d(a[0], b[0])
    rows = np.zeros((row_ids.size, a[1].shape[1]),
                    dtype=np.result_type(a[1], b[1]))
    for ids, vals in (a, b):
        rows[np.searchsorted(row_ids, ids)] += vals
    return row_ids, rows


def zero_grads(params: ModelParams) -> Grads:
    """Empty row-table pairs and zeroed head groups."""
    groups = {k: (np.zeros(0, np.int64), v[:0].copy()) if k in ROW_TABLES
              else np.zeros_like(v) for k, v in params.arrays().items()}
    return Grads(**groups)


def backward(params: ModelParams, trace: ForwardTrace,
             d_de: np.ndarray | None = None,
             d_clf: np.ndarray | None = None,
             out: Grads | None = None) -> Grads:
    """Accumulate exact parameter gradients for one forward trace.

    ``d_de`` / ``d_clf`` are loss gradients w.r.t. the head outputs.  Only
    the embedding table and the heads get gradients; embedding rows come from
    feature columns, and untouched rows/params keep zero gradient.  The
    classifier table is not part of the trace: its gradient rows are the
    classifier loss's, and the training step sets them itself.
    """
    g = out if out is not None else zero_grads(params)
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

    if d_de is not None or d_clf is not None:
        # feats.T @ d_enc over the batch's feature columns only: the compact
        # matrix keeps each row's entry order, so every row sums its terms in
        # the same order as the full-width product.
        feats = trace.feats
        cols, local = np.unique(feats.indices, return_inverse=True)
        compact = sp.csr_matrix((feats.data, local, feats.indptr),
                                shape=(feats.shape[0], cols.size))
        block = (cols.astype(np.int64), np.asarray(compact.T @ d_enc))
        # ``cols`` is sorted and unique: an empty pair needs no merge
        g.embed = merge_rows(g.embed, block) if g.embed[0].size else block

    return g


def save_checkpoint(path: str, params: ModelParams,
                    extra: dict | None = None) -> None:
    """Binary checkpoint (magic + dims + float64 matrices) and JSON sidecar.

    Each file is written to a temporary file and renamed into place, so a
    failed save leaves the previous checkpoint loadable.
    """
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array([params.hash_dim, params.encoder_dim,
                           params.search_dim, params.num_labels],
                          dtype="<u8").tobytes())
        fh.write(struct.pack("<d", params.dropout))
        for name in ("embed", "de_w", "de_b", "clf_w", "clf_b", "classifiers"):
            fh.write(np.ascontiguousarray(
                params.arrays()[name], dtype="<f8").tobytes())
    sidecar = {"dims": {"hash_dim": params.hash_dim,
                        "encoder_dim": params.encoder_dim,
                        "search_dim": params.search_dim,
                        "num_labels": params.num_labels},
               "dropout": params.dropout}
    if extra:
        sidecar.update(extra)
    with atomic_open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Validate magic, dims and finite values and rebuild params; returns
    (params, sidecar)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a model checkpoint (bad magic)")
    if len(blob) < 48:
        raise ConfigError(f"{path}: truncated checkpoint header "
                          f"({len(blob)} of 48 bytes)")
    dims = np.frombuffer(blob, dtype="<u8", count=4, offset=8)
    hash_dim, enc_dim, search_dim, num_labels = (int(x) for x in dims)
    if min(hash_dim, enc_dim, search_dim, num_labels) == 0:
        raise ConfigError(f"{path}: zero dimension in checkpoint header "
                          f"{[hash_dim, enc_dim, search_dim, num_labels]}")
    (dropout,) = struct.unpack_from("<d", blob, 40)
    shapes = [("embed", (hash_dim, enc_dim)), ("de_w", (enc_dim, search_dim)),
              ("de_b", (search_dim,)), ("clf_w", (enc_dim, search_dim)),
              ("clf_b", (search_dim,)), ("classifiers", (num_labels, search_dim))]
    expected = 48 + 8 * sum(math.prod(s) for _, s in shapes)
    if len(blob) != expected:
        raise ConfigError(
            f"{path}: size {len(blob)} does not match header dims "
            f"(expected {expected})")
    offset, fields = 48, {}
    for name, shape in shapes:
        count = math.prod(shape)
        fields[name] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        finite = np.isfinite(fields[name])
        if not finite.all():
            index = np.unravel_index(np.argmin(finite), shape)
            raise ConfigError(f"{path}: non-finite {name} value at index "
                              f"{tuple(int(i) for i in index)}")
        offset += 8 * count
    params = ModelParams(**fields, dropout=float(dropout))
    sidecar_path = path + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = {}
    except ValueError as exc:   # invalid JSON or UTF-8
        raise ConfigError(f"{sidecar_path}: corrupt checkpoint sidecar: "
                          f"{exc}") from exc
    return params, sidecar
