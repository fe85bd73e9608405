"""One run configuration, declared once.

``RunConfig`` owns only the keys no library dataclass owns (paths, the
inference mode, ``top_k`` and the ``simulate-batches`` sweeps) and nests
``TrainConfig``, which nests ``LossConfig``.  Every leaf field of that
tree is one flat key, named after the field: the config-file key, and the
``--key-name`` flag with ``_`` spelled ``-``.  The field's type says how a
value is parsed (``tuple`` is a comma list of integers) and its
``metadata["help"]`` is the help text.  Key names are unique across the
tree.

Precedence is command line > config file > built-in defaults.  Unknown keys
and unparsable or invalid values are rejected by name (``ConfigError``).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError
from .infer import MODES
from .train import TrainConfig


@dataclass
class RunConfig:
    queries_path: str = field(default="", metadata={
        "help": "instance file: JSONL rows of text and label ids"})
    labels_path: str = field(default="", metadata={
        "help": "label text file, one label per line"})
    eval_queries_path: str = field(default="", metadata={
        "help": "optional held-out instance file for evaluation"})
    mode: str = field(default="concat", metadata={
        "help": "inference mode: de, clf, or concat"})
    top_k: int = field(default=5, metadata={
        "help": "ranked labels per query for predict"})
    out_dir: str = field(default="runs/out", metadata={
        "help": "directory for run artifacts"})
    checkpoint_path: str = field(default="", metadata={
        "help": "model checkpoint to write/read (default: in out_dir)"})
    predictions_path: str = field(default="", metadata={
        "help": "predictions TSV to write/read (default: in out_dir)"})
    metrics_path: str = field(default="", metadata={
        "help": "metrics JSON to write (default: in out_dir)"})
    log_path: str = field(default="", metadata={
        "help": "training log JSONL to write (default: in out_dir)"})
    sim_positive_caps: tuple = field(default=(3,), metadata={
        "help": "comma list of per-query positive caps to sweep in "
                "simulate-batches"})
    sim_negative_caps: tuple = field(default=(0,), metadata={
        "help": "comma list of per-query hard-negative counts to sweep in "
                "simulate-batches"})
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        checks = [
            (self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}"),
            (self.top_k >= 1, "top_k must be >= 1"),
            (len(self.sim_positive_caps) > 0
             and min(self.sim_positive_caps) >= 1,
             "sim_positive_caps must be a non-empty list of entries >= 1"),
            (len(self.sim_negative_caps) > 0
             and min(self.sim_negative_caps) >= 0,
             "sim_negative_caps must be a non-empty list of entries >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.train.validate()


@dataclass(frozen=True)
class Key:
    """One settable value: its field's name, type, default and help."""

    name: str
    type: type
    default: object
    help: str


def _walk(obj):
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        default = getattr(obj, f.name)
        if is_dataclass(default):
            yield from _walk(default)
        else:
            yield Key(f.name, hints[f.name], default, f.metadata["help"])


KEYS = {key.name: key for key in _walk(RunConfig())}


_TRUE, _FALSE = {"1", "true", "yes", "on"}, {"0", "false", "no", "off"}


def coerce_value(key: str, raw: str, kind: type) -> object:
    """Parse the raw string value of ``key`` as ``kind``."""
    text = raw.strip()
    if kind is bool:
        if text.lower() in _TRUE:
            return True
        if text.lower() in _FALSE:
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    if kind is str:
        return text
    try:
        if kind is tuple:
            return tuple(int(part) for part in text.split(",") if part.strip())
        parsed = kind(text)
    except ValueError as exc:
        what = "a comma list of integers" if kind is tuple else kind.__name__
        raise ConfigError(f"{key} expects {what}, got {raw!r}") from exc
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"{key} expects a finite float, got {raw!r}")
    return parsed


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
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _construct(obj, values: dict):
    """Copy of ``obj`` with flat ``values`` applied, built bottom-up because
    ``LossConfig`` is frozen."""
    changes = {}
    for f in fields(obj):
        current = getattr(obj, f.name)
        if is_dataclass(current):
            changes[f.name] = _construct(current, values)
        elif f.name in values:
            changes[f.name] = values[f.name]
    return replace(obj, **changes)


def build_config(file_values: dict | None = None,
                 override_values: dict | None = None) -> tuple[RunConfig, set]:
    """Merge defaults < file < overrides (raw strings by key) and validate
    the result.  Returns (config, explicitly-set keys).
    """
    values = {}
    for source in (file_values or {}, override_values or {}):
        for key, raw in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = coerce_value(key, raw, KEYS[key].type)
    config = _construct(RunConfig(), values)
    config.validate()
    return config, set(values)
