"""Seeded input generators for the benchmark workloads.

Each generator writes the files ``xmclite.load_dataset`` reads: a
``labels.txt`` with one label text per line and jsonl query files with one
``{"text": ..., "labels": [...]}`` object per line.  The same seed always
writes the same bytes.  Each split (train, held-out) has its own seed, and
so does the Zipf label catalog.  Generation runs in the benchmark's parent
process, never in the process that is measured.

* Signature corpus: label ``l`` is the single token ``sig<l>``; a query is
  the signatures of 1-3 positive labels plus one of 16 noise tokens (the
  shape of the acceptance fixture).
* Zipf corpus: a vocabulary of synthetic words with Zipf frequencies; a
  label is a handful of distinct words, and a query is the words of its
  1-3 positive labels (Zipf label popularity, so there is a label tail)
  mixed with background words, in shuffled order.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Stream ids: default_rng([seed, STREAM, split_no]) keeps splits independent
# even when they share a seed.
_LABELS = 0
_QUERIES = 1

NOISE_TOKENS = 16          # signature corpus: noise vocabulary
VOCAB_SIZE = 20000         # Zipf corpus: distinct words
LABEL_WORDS = 5            # words per label text
WORD_EXPONENT = 1.0        # Zipf exponent of background words
# Label texts draw from a flatter Zipf than the background, so that labels
# are told apart by rarer words, as real label titles are.
LABEL_WORD_EXPONENT = 0.5
LABEL_EXPONENT = 0.8       # Zipf exponent of label popularity (a label tail)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_queries(path: str, texts: list, positives: list) -> None:
    _write_lines(path, (json.dumps({"text": t, "labels": p})
                        for t, p in zip(texts, positives)))


def _positive_sets(rng: np.random.Generator, n: int, num_labels: int,
                   popularity: np.ndarray | None) -> list:
    counts = rng.integers(1, 3, size=n, endpoint=True)
    return [sorted(int(x) for x in rng.choice(
                num_labels, size=int(min(k, num_labels)), replace=False,
                p=popularity))
            for k in counts]


def signature_corpus(out_dir: str, num_labels: int, splits: dict) -> dict:
    """Write labels.txt plus one jsonl per split; returns the file paths.

    ``splits`` maps a split name to ``(num_queries, seed)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {"labels": os.path.join(out_dir, "labels.txt")}
    _write_lines(paths["labels"], (f"sig{l}" for l in range(num_labels)))
    for split_no, (name, (n, seed)) in enumerate(sorted(splits.items())):
        rng = np.random.default_rng([seed, _QUERIES, split_no])
        positives = _positive_sets(rng, n, num_labels, None)
        noise = rng.integers(NOISE_TOKENS, size=n)
        texts = [" ".join([f"sig{p}" for p in pos] + [f"w{int(w)}"])
                 for pos, w in zip(positives, noise)]
        paths[name] = os.path.join(out_dir, f"{name}.jsonl")
        _write_queries(paths[name], texts, positives)
    return paths


def _zipf(rng: np.random.Generator, size: int, exponent: float) -> np.ndarray:
    """Zipf probabilities over ``size`` items, ranks shuffled by the seed."""
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return rng.permutation(weights / weights.sum())


def zipf_corpus(out_dir: str, catalog_seed: int, num_labels: int,
                splits: dict, background_words: int) -> dict:
    """Write labels.txt plus one jsonl per split; returns the file paths.

    The catalog (word frequencies, label texts, label popularity) comes from
    ``catalog_seed``; ``splits`` maps a split name to ``(num_queries, seed)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([catalog_seed, _LABELS])
    words = np.asarray([f"t{i:x}" for i in range(VOCAB_SIZE)])
    word_p = _zipf(rng, VOCAB_SIZE, WORD_EXPONENT)
    label_word_p = _zipf(rng, VOCAB_SIZE, LABEL_WORD_EXPONENT)
    label_p = _zipf(rng, num_labels, LABEL_EXPONENT)
    label_texts = [words[rng.choice(VOCAB_SIZE, size=LABEL_WORDS,
                                    replace=False, p=label_word_p)]
                   for _ in range(num_labels)]
    paths = {"labels": os.path.join(out_dir, "labels.txt")}
    _write_lines(paths["labels"], (" ".join(t) for t in label_texts))
    for split_no, (name, (n, seed)) in enumerate(sorted(splits.items())):
        qrng = np.random.default_rng([seed, _QUERIES, split_no])
        positives = _positive_sets(qrng, n, num_labels, label_p)
        background = words[qrng.choice(VOCAB_SIZE, size=(n, background_words),
                                       p=word_p)]
        texts = []
        for pos, bg in zip(positives, background):
            tokens = np.concatenate([label_texts[p] for p in pos] + [bg])
            texts.append(" ".join(tokens[qrng.permutation(tokens.size)]))
        paths[name] = os.path.join(out_dir, f"{name}.jsonl")
        _write_queries(paths[name], texts, positives)
    return paths
