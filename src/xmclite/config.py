"""Flat run configuration: key=value file + command-line overrides.

Precedence is command line > config file > built-in defaults.  Unknown keys
are rejected by name.  Comma-separated list values (``eval_k``,
``sim_positive_caps``, ``sim_negative_caps``) stay strings here and
are split on use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .losses import LossConfig
from .train import TrainConfig

FIELD_HELP = {
    "queries_path": "instance file: JSONL rows or xmc-sparse matrix",
    "labels_path": "label text file, one label per line",
    "data_format": "instance file format: jsonl or xmc-sparse",
    "eval_queries_path": "optional held-out instance file for evaluation",
    "hash_dim": "feature-hashing dimension of the token vocabulary",
    "encoder_dim": "width of the shared token-embedding encoder",
    "search_dim": "width of the retrieval/classifier embedding space",
    "dropout": "dropout rate in both projection heads",
    "warm_start_classifiers": "seed classifier rows from label text embeddings",
    "epochs": "training epochs",
    "batch_size": "target batch size (clustered batches, sizes within 1)",
    "refresh_interval": "epochs between re-clustering and cache refresh",
    "positives_per_query": "max positives sampled per query per batch",
    "hard_negatives_per_query": "hard negatives sampled per query per batch",
    "extra_clf_positives": "extra classifier-side positives per query",
    "cache_size": "mined negatives kept per query (0 = auto)",
    "lr_encoder": "Adam learning rate for the embedding table",
    "lr_heads": "Adam learning rate for both projection heads",
    "lr_classifiers": "Adam learning rate for classifier rows",
    "grad_clip": "global gradient-norm clip (0 = off)",
    "seed": "master seed; all randomness derives from it",
    "eval_every": "evaluate every this many epochs (0 = off)",
    "temperature": "softmax temperature for all pool losses",
    "de_weight": "weight of the retrieval loss in the total (1 = retrieval only)",
    "de_q2l_weight": "query-anchored share inside the retrieval loss",
    "clf_q2l_weight": "query-anchored share inside the classifier loss",
    "positive_reduction": "per-anchor reduction over positives: mean or sum",
    "batch_reduction": "reduction over anchors: mean or sum",
    "triplet_margin": "margin for the triplet baseline loss",
    "mode": "inference mode: de, clf, or concat",
    "top_k": "ranked labels per query for predict",
    "eval_k": "comma list of cutoffs for P@k / PSP@k",
    "propensity_a": "propensity model exponent A",
    "propensity_b": "propensity model offset B",
    "out_dir": "directory for run artifacts",
    "checkpoint_path": "model checkpoint to write/read (default: in out_dir)",
    "predictions_path": "predictions TSV to write/read (default: in out_dir)",
    "metrics_path": "metrics JSON to write (default: in out_dir)",
    "log_path": "training log JSONL to write (default: in out_dir)",
    "sim_positive_caps": "comma list of per-query positive caps to sweep "
                         "in simulate-batches",
    "sim_negative_caps": "comma list of per-query hard-negative counts to "
                         "sweep in simulate-batches",
}


@dataclass
class RunConfig:
    queries_path: str = ""
    labels_path: str = ""
    data_format: str = "jsonl"
    eval_queries_path: str = ""
    hash_dim: int = 1 << 15
    encoder_dim: int = 64
    search_dim: int = 32
    dropout: float = 0.1
    warm_start_classifiers: bool = True
    epochs: int = 150
    batch_size: int = 64
    refresh_interval: int = 5
    positives_per_query: int = 3
    hard_negatives_per_query: int = 6
    extra_clf_positives: int = 0
    cache_size: int = 0
    lr_encoder: float = 1e-4
    lr_heads: float = 2e-4
    lr_classifiers: float = 1e-3
    grad_clip: float = 0.0
    seed: int = 0
    eval_every: int = 0
    temperature: float = 0.05
    de_weight: float = 0.5
    de_q2l_weight: float = 0.5
    clf_q2l_weight: float = 0.5
    positive_reduction: str = "mean"
    batch_reduction: str = "mean"
    triplet_margin: float = 0.3
    mode: str = "concat"
    top_k: int = 5
    eval_k: str = "1,3,5"
    propensity_a: float = 0.55
    propensity_b: float = 1.5
    out_dir: str = "runs/out"
    checkpoint_path: str = ""
    predictions_path: str = ""
    metrics_path: str = ""
    log_path: str = ""
    sim_positive_caps: str = "3"
    sim_negative_caps: str = "0"

    def loss_config(self) -> LossConfig:
        return LossConfig(
            temperature=self.temperature,
            de_weight=self.de_weight,
            de_q2l_weight=self.de_q2l_weight,
            clf_q2l_weight=self.clf_q2l_weight,
            positive_reduction=self.positive_reduction,
            batch_reduction=self.batch_reduction,
            triplet_margin=self.triplet_margin,
            extra_clf_positives=self.extra_clf_positives,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            refresh_interval=self.refresh_interval,
            positives_per_query=self.positives_per_query,
            hard_negatives_per_query=self.hard_negatives_per_query,
            cache_size=self.cache_size,
            hash_dim=self.hash_dim,
            encoder_dim=self.encoder_dim,
            search_dim=self.search_dim,
            dropout=self.dropout,
            warm_start_classifiers=self.warm_start_classifiers,
            lr_encoder=self.lr_encoder,
            lr_heads=self.lr_heads,
            lr_classifiers=self.lr_classifiers,
            grad_clip=self.grad_clip,
            seed=self.seed,
            eval_every=self.eval_every,
            eval_k=self.eval_k_list(),
            loss=self.loss_config(),
        )

    def eval_k_list(self) -> tuple:
        return _int_list(self.eval_k, "eval_k")


def _int_list(raw: str, key: str) -> tuple:
    try:
        values = tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma list of integers, "
                          f"got {raw!r}") from exc
    if not values:
        raise ConfigError(f"{key} must not be empty")
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_TRUE, _FALSE = {"1", "true", "yes", "on"}, {"0", "false", "no", "off"}


def coerce_value(key: str, raw, current_type) -> object:
    if isinstance(raw, bool) or not isinstance(raw, str):
        return raw
    text = raw.strip()
    if current_type == "bool":
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    try:
        if current_type == "int":
            return int(text)
        if current_type == "float":
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} expects {current_type}, got {raw!r}") from exc
    return text


def parse_config_file(path: str) -> dict:
    """key=value lines, '#' comments; returns raw string values by key."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict | None = None,
                 override_values: dict | None = None) -> tuple[RunConfig, set]:
    """Merge defaults < file < overrides; returns (config, explicitly-set keys)."""
    config = RunConfig()
    explicit = set()
    for source in (file_values or {}, override_values or {}):
        for key, raw in source.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, key, coerce_value(key, raw, _FIELD_TYPES[key]))
            explicit.add(key)
    return config, explicit
