"""One run configuration, declared once.

``RunConfig`` owns only the keys no library dataclass owns (paths, the
inference mode, ``top_k`` and the ``simulate-batches`` sweeps) and nests
``TrainConfig``, which owns every training key.  Every field of the two
that holds no dataclass is one flat key, named after the field: the
config-file key, and the ``--key-name`` flag with ``_`` spelled ``-``.  The
field's type says how a value is parsed (``tuple`` is a comma list of
integers) and its ``metadata["help"]`` is the help text.  Key names are
unique across the two.

Precedence is command line > config file > built-in defaults.  Unknown keys
and unparsable values are rejected here by name (``ConfigError``); the
``validate()`` of each dataclass rejects invalid ones, so the library and
the command line apply the same rules.
"""

from __future__ import annotations

import re
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError, reject_bad_values
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
        "help": "model checkpoint that train writes (empty: in out_dir); "
                "predict requires it; simulate-batches reads it if given, "
                "else uses untrained parameters"})
    predictions_path: str = field(default="", metadata={
        "help": "predictions TSV that predict writes (empty: in out_dir); "
                "eval requires it"})
    metrics_path: str = field(default="", metadata={
        "help": "metrics JSON that eval writes (empty: in out_dir)"})
    log_path: str = field(default="", metadata={
        "help": "training log JSONL that train writes (empty: in out_dir)"})
    sim_positive_caps: tuple = field(default=(3,), metadata={
        "help": "comma list of per-query positive caps to sweep in "
                "simulate-batches"})
    sim_negative_caps: tuple = field(default=(0,), metadata={
        "help": "comma list of per-query hard-negative counts to sweep in "
                "simulate-batches"})
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        reject_bad_values(self)
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


def coerce_value(key: str, raw: str, kind: type) -> object:
    """Parse the raw string value of ``key`` as ``kind``."""
    text = raw.strip()
    if kind is str:
        return text
    try:
        parsed = tuple(int(part) for part in text.split(",")) \
            if kind is tuple else kind(text)
    except ValueError as exc:
        what = "a comma list of integers" if kind is tuple else kind.__name__
        raise ConfigError(f"{key} expects {what}, got {raw!r}") from exc
    return parsed


_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_file(path: str) -> dict:
    """key=value lines, each key at most once; returns raw string values by
    key.  A '#' at the start of a line or after whitespace starts a comment,
    so one inside a value, as in ``out_dir = runs/exp#3``, is kept."""
    values, line_of = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT.sub("", line, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} "
                                  f"given twice, on lines {line_of[key]} "
                                  f"and {lineno}")
            values[key], line_of[key] = value, lineno
    return values


def _construct(obj, values: dict):
    """Copy of ``obj``, and of each dataclass it nests, with flat ``values``
    applied."""
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
