"""Multi-label dataset loading, validation, featurization into the
encoder's row-normalized input, and synthesis.

Instances are read from JSONL, one ``{"text": ..., "labels": [...]}``
object per line; label texts come from a separate file, one label per
line.  A label line or a query text with no letter or digit (in any
script) is a hard error, because every label and every query must be
embeddable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
import unicodedata
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DatasetFormatError

_SPLIT = re.compile(r"[\W_]+")


@functools.cache
def _non_ascii_words() -> re.Pattern:
    """A pattern whose matches are the words of a text with no underscore:
    a letter or digit, then every letter, digit and combining mark (Unicode
    Mn/Mc) that follows it.  Its mark class scans every code point, so it is
    built on the first non-ASCII text, not at import."""
    ranges = []
    for code in range(sys.maxunicode + 1):
        if unicodedata.category(chr(code)) in ("Mn", "Mc"):
            if ranges and ranges[-1][1] == code - 1:
                ranges[-1][1] = code
            else:
                ranges.append([code, code])
    marks = "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
                    for lo, hi in ranges)
    return re.compile(f"\\w[\\w{marks}]*")


def _stable_hash(token: str) -> int:
    # blake2b rather than hash(): identical across processes and platforms.
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Vocabulary:
    """Feature-hashing vocabulary: no build pass, fixed dimension.

    Tokens are the lowercased text's runs of Unicode letters and digits
    (it is split at ``[\\W_]+``: punctuation, symbols such as emoji, spaces
    and underscores), so ``東京タワー`` and ``café`` are one token each.
    Combining marks (Unicode Mn/Mc) stay in the word of the letter or
    digit before them, and non-ASCII text is NFC-normalised first, so
    ``नमस्ते`` is one token and a decomposed ``é`` (``e`` + U+0301) gives
    the token of a composed one.  Each token maps to
    ``stable_64bit_hash(token) mod hash_dim``.
    """

    hash_dim: int = 1 << 15

    def __post_init__(self):
        if self.hash_dim <= 0:
            raise ValueError(f"hash_dim must be positive, got {self.hash_dim}")

    def token_id(self, token: str) -> int:
        return _stable_hash(token) % self.hash_dim

    def tokenize(self, text: str) -> np.ndarray:
        """Text -> array of token ids (may be empty)."""
        return TokenIds(self).tokenize(text)


class TokenIds(dict):
    """``Vocabulary.token_id`` of each distinct token, hashed once.

    A loader keeps one for the texts of one file, so the memo is dropped
    with the call rather than keeping every token seen in the process.
    """

    def __init__(self, vocab: Vocabulary):
        super().__init__()
        self.vocab = vocab

    def __missing__(self, token: str) -> int:
        self[token] = token_id = self.vocab.token_id(token)
        return token_id

    def tokenize(self, text: str) -> np.ndarray:
        """``Vocabulary.tokenize`` of ``text``, through the memo."""
        text = text.lower()
        words = (_SPLIT.split(text) if text.isascii() else
                 _non_ascii_words().findall(
                     unicodedata.normalize("NFC", text).replace("_", " ")))
        return np.asarray([self[t] for t in words if t], dtype=np.int64)


def featurize_all(texts: list[np.ndarray], vocab: Vocabulary) -> sp.csr_matrix:
    """The encoder's (n, hash_dim) input rows: token counts scaled to sum 1
    (empty texts give zero rows).  The scaling product leaves each row's
    indices in an order of its own, which the encoder's sums follow and
    row slices keep, so slices need no renormalizing."""
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    cols = (np.concatenate(texts).astype(np.int64, copy=False)
            if texts else np.zeros(0, dtype=np.int64))
    counts = sp.coo_matrix((np.ones(len(cols)), (rows, cols)),
                           shape=(len(texts), vocab.hash_dim)).tocsr()
    counts.sum_duplicates()
    counts.sort_indices()
    sums = np.asarray(counts.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.diags(scale).dot(counts).tocsr()


def gather_segments(indptr: np.ndarray, rows: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` (int64 ids) of ``indptr``, taken in order: the
    gathered ``indptr``, in ``indptr``'s dtype, and the positions of their
    entries in the source ``indices``/``data``, row by row in stored order."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    out = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(sizes, out=out[1:])
    return out, np.repeat(starts - out[:-1], sizes) + np.arange(out[-1])


def take_rows(feats: sp.csr_matrix, ids) -> sp.csr_matrix:
    """``feats[ids]`` for a 1-d array of row ids, gathered from the
    ``indptr`` segments in numpy: the same ``indptr``, ``indices`` and
    ``data``, bitwise and in dtype, as scipy's row indexing, at half its
    cost."""
    ids = np.asarray(ids, dtype=np.int64)
    indptr, at = gather_segments(feats.indptr, ids)
    return sp.csr_matrix((feats.data[at], feats.indices[at], indptr),
                         shape=(ids.size, feats.shape[1]))


def hit_matrix(ids, held, t_row, t_ids) -> np.ndarray:
    """Which held entries of the 2-d ``ids`` are in their row's truth set.

    Row r's truth set is ``t_ids[t_row == r]``.  Each (row, label) pair
    becomes one integer key; ids outside the range the truth sets span are
    misses without being keyed.
    """
    hit = np.zeros(held.shape, dtype=bool)
    if t_ids.size == 0:
        return hit
    lo, span = t_ids.min(), t_ids.max() - t_ids.min() + 1
    t_keys = np.sort(t_row * span + (t_ids - lo))
    inside = held & (ids >= lo) & (ids < lo + span)
    keys = np.nonzero(inside)[0] * span + (ids[inside] - lo)
    pos = np.minimum(np.searchsorted(t_keys, keys), t_keys.size - 1)
    hit[inside] = t_keys[pos] == keys
    return hit


@dataclass
class Dataset:
    """Immutable container for instances, labels, and their relevance matrix."""

    num_instances: int
    num_labels: int
    instance_texts: list[np.ndarray]
    label_texts: list[np.ndarray]
    relevance: sp.csr_matrix          # (N, L) binary, rows sorted
    label_frequencies: np.ndarray     # (L,) positive count per label
    vocab: Vocabulary = field(default_factory=Vocabulary)

    def positives(self, i: int) -> np.ndarray:
        """Sorted positive label ids of instance i (a view, do not mutate)."""
        sl = slice(self.relevance.indptr[i], self.relevance.indptr[i + 1])
        return self.relevance.indices[sl]

    def positive_sets(self) -> list[np.ndarray]:
        return [self.positives(i) for i in range(self.num_instances)]

    def validate(self) -> None:
        n, l = self.num_instances, self.num_labels
        if self.relevance.shape != (n, l):
            raise ValueError(f"relevance shape {self.relevance.shape} != ({n}, {l})")
        if len(self.instance_texts) != n or len(self.label_texts) != l:
            raise ValueError("text list lengths disagree with matrix shape")
        idx = self.relevance.indices
        if idx.size and (idx.min() < 0 or idx.max() >= l):
            raise ValueError("relevance references a label id outside [0, L)")
        # an id not above the one before it in the same row
        row = np.repeat(np.arange(n), np.diff(self.relevance.indptr))
        bad = (np.diff(idx) <= 0) & (row[1:] == row[:-1])
        if bad.any():
            i = int(row[np.argmax(bad)])
            raise ValueError(f"positives of instance {i} not strictly sorted")
        freq = np.bincount(idx, minlength=l).astype(np.int64)
        if not np.array_equal(freq, self.label_frequencies):
            raise ValueError("stored label_frequencies disagree with matrix")


def make_dataset(instance_texts: list[np.ndarray], label_texts: list[np.ndarray],
                 positive_sets: list, num_labels: int,
                 vocab: Vocabulary) -> Dataset:
    """Assemble and validate a Dataset from per-instance positive-id lists."""
    n = len(instance_texts)
    cleaned = [np.unique(np.asarray(p, dtype=np.int64)) for p in positive_sets]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(p) for p in cleaned])
    indices = (np.concatenate(cleaned) if n else np.zeros(0, dtype=np.int64))
    data = np.ones(len(indices), dtype=np.int8)
    rel = sp.csr_matrix((data, indices, indptr), shape=(n, num_labels))
    freq = np.bincount(indices, minlength=num_labels).astype(np.int64)
    ds = Dataset(n, num_labels, instance_texts, label_texts, rel, freq, vocab)
    ds.validate()
    return ds


def _split_lines(text: str) -> list[str]:
    """Lines as text mode splits them: at LF, CRLF and CR only (not at
    U+2028 and the like), and a final break adds no line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _read_lines(path: str) -> list[str]:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _split_lines(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the prefix before the first bad byte decodes; "x" opens its line
        prefix = blob[:exc.start].decode("utf-8") + "x"
        raise DatasetFormatError("text is not valid UTF-8", path,
                                 len(_split_lines(prefix))) from exc


def load_label_texts(path: str, vocab: Vocabulary) -> list[np.ndarray]:
    """One label text per line; a line without a token is a hard error."""
    texts, token_ids = [], TokenIds(vocab)
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            raise DatasetFormatError("empty label text", path, lineno)
        tokens = token_ids.tokenize(line)
        if tokens.size == 0:
            raise DatasetFormatError(
                "label text has no letter or digit to embed", path, lineno)
        texts.append(tokens)
    return texts


def load_dataset(queries_path: str, labels_path: str,
                 vocab: Vocabulary | None = None) -> Dataset:
    """Load JSONL instance rows plus the label-text file they index."""
    vocab = vocab if vocab is not None else Vocabulary()
    return _load_jsonl(queries_path, load_label_texts(labels_path, vocab),
                       vocab)


def _load_jsonl(path: str, label_texts: list[np.ndarray],
                vocab: Vocabulary) -> Dataset:
    l = len(label_texts)
    instance_texts, positive_sets = [], []
    token_ids = TokenIds(vocab)
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON: {exc.msg}", path, lineno) from exc
        except (ValueError, RecursionError) as exc:
            # nesting too deep for the parser, or an integer too long to convert
            raise DatasetFormatError(f"invalid JSON: {exc}", path, lineno) from exc
        if not isinstance(obj, dict) or "text" not in obj or "labels" not in obj:
            raise DatasetFormatError(
                "expected an object with 'text' and 'labels'", path, lineno)
        if not isinstance(obj["text"], str):
            raise DatasetFormatError("'text' must be a string", path, lineno)
        if not isinstance(obj["labels"], list):
            raise DatasetFormatError("'labels' must be a list", path, lineno)
        ids = []
        for lid in obj["labels"]:
            if not isinstance(lid, int) or isinstance(lid, bool):
                raise DatasetFormatError(
                    f"label id {lid!r} is not an integer", path, lineno)
            if lid < 0 or lid >= l:
                raise DatasetFormatError("label id out of range", path, lineno)
            ids.append(lid)
        tokens = token_ids.tokenize(obj["text"])
        if tokens.size == 0:
            raise DatasetFormatError(
                "query text has no letter or digit to embed", path, lineno)
        instance_texts.append(tokens)
        positive_sets.append(ids)
    return make_dataset(instance_texts, label_texts, positive_sets, l, vocab)


def synth_dataset(num_instances: int, num_labels: int, seed: int = 0,
                  positives_per_instance: tuple[int, int] = (1, 3),
                  vocab: Vocabulary | None = None,
                  noise_tokens: int = 16) -> Dataset:
    """Deterministic, linearly separable fixture.

    Label ``l`` has signature token ``sig<l>`` as its entire text; each
    instance's text is the signature tokens of its positives plus one noise
    token, so a bag-of-tokens model can recover the relevance exactly.
    """
    if num_instances < 1 or num_labels < 1:
        raise ValueError("num_instances and num_labels must be >= 1")
    lo, hi = positives_per_instance
    if lo < 1 or hi < lo:
        raise ValueError(f"bad positives_per_instance range {positives_per_instance}")
    vocab = vocab if vocab is not None else Vocabulary()
    rng = np.random.default_rng(seed)
    label_texts = [vocab.tokenize(f"sig{l}") for l in range(num_labels)]
    instance_texts, positive_sets = [], []
    for _ in range(num_instances):
        k = min(int(rng.integers(lo, hi, endpoint=True)), num_labels)
        pos = np.sort(rng.choice(num_labels, size=k, replace=False))
        words = [f"sig{p}" for p in pos] + [f"w{rng.integers(noise_tokens)}"]
        instance_texts.append(vocab.tokenize(" ".join(words)))
        positive_sets.append(pos)
    return make_dataset(instance_texts, label_texts, positive_sets,
                        num_labels, vocab)
