"""Workload definitions and the memory guard.

A workload fixes the generated corpus, the train config and how many
held-out queries are predicted and evaluated.  The label catalog, the
training split and the model seed are fixed (``FIXED_SEED``), so every run
of a workload trains the same model and the run's seed draws the held-out
queries.  With few training steps the held-out P@1 of differently seeded
models spreads by 10-20%; fixing them leaves only the held-out sample to
spread the quality metrics.  ``tiny`` variants shrink every size so the
self-test finishes in seconds; they are never used for measurement.
Why each workload was chosen, and the metrics a run prints, are listed in
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Thread-count variables of every BLAS/OpenMP runtime numpy may load.  The
# measured process pins them to 1 before importing numpy: the determinism
# contract needs one thread, and the machine has 2 cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Rounding allowed when a check recomputes a score with another BLAS call
# than the program used (a matrix-vector instead of a matrix-matrix product).
SCORE_TOL = 1e-12

# Largest N x L float64 score matrix a workload may ask the program to
# allocate (mining, predict or eval).  Sized for a 2-core, 8 GB machine
# shared with other tenants; the program holds a few copies of its inputs
# besides.
SCORE_BUDGET_BYTES = 1 << 30

# Seed of the label catalog, the training split and TrainConfig.seed.
FIXED_SEED = 0

# Learning rates x10 / x20 of the TrainConfig defaults (1e-4/2e-4/1e-3), so
# that a few epochs train every head: at the default rates, 10 epochs of
# sig-dense leave held-out clf P@1 under 0.1.
LR_X10 = {"lr_encoder": 1e-3, "lr_heads": 2e-3, "lr_classifiers": 1e-2}
LR_X20 = {"lr_encoder": 2e-3, "lr_heads": 4e-3, "lr_classifiers": 2e-2}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                  # "signature" or "zipf"
    num_labels: int
    num_train: int
    num_heldout: int             # queries predicted per predict pass
    num_eval: int                # leading held-out queries evaluate_model scores
    train: dict                  # TrainConfig keyword arguments
    background_words: int = 0    # Zipf corpus: background words per query

    def score_matrix_bytes(self) -> int:
        """Largest N x L x 8 the workload's mining, predict and eval allocate."""
        mining = self.num_train if self.train[
            "hard_negatives_per_query"] > 0 else 0
        rows = max(mining, self.num_heldout, self.num_eval)
        return rows * self.num_labels * 8

    def tiny(self) -> "Workload":
        shrink = {"hash_dim": 1 << 10, "epochs": min(2, self.train["epochs"])}
        return replace(
            self, num_labels=max(8, self.num_labels // 64),
            num_train=max(64, self.num_train // 64),
            num_heldout=max(32, self.num_heldout // 64),
            num_eval=max(32, self.num_eval // 64),
            train={**self.train, **shrink})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sig-dense",
        corpus="signature", num_labels=128, num_train=512, num_heldout=8192,
        num_eval=512,
        train={"hash_dim": 1 << 15, "epochs": 10, "refresh_interval": 5,
               "positives_per_query": 2, "hard_negatives_per_query": 2,
               **LR_X10}),
    Workload(
        name="wordy-refresh",
        corpus="zipf", num_labels=4096, num_train=3072, num_heldout=2048,
        num_eval=2048,
        train={"hash_dim": 1 << 14, "epochs": 2, "refresh_interval": 1,
               "positives_per_query": 3, "hard_negatives_per_query": 6,
               **LR_X20},
        background_words=30),
    Workload(
        name="wordy-serve",
        corpus="zipf", num_labels=4096, num_train=2048, num_heldout=4096,
        num_eval=2048,
        train={"hash_dim": 1 << 15, "epochs": 1, "refresh_interval": 5,
               "positives_per_query": 3, "hard_negatives_per_query": 6,
               **LR_X20},
        background_words=8),
)}


def check_memory(workload: Workload) -> None:
    """Refuse a workload whose largest score matrix exceeds the budget."""
    need = workload.score_matrix_bytes()
    if need > SCORE_BUDGET_BYTES:
        raise SystemExit(
            f"workload {workload.name!r} would allocate a {need / 2**20:.0f} MiB "
            f"score matrix, above the {SCORE_BUDGET_BYTES / 2**20:.0f} MiB "
            f"budget")

