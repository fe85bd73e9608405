"""The configuration schema: one flat key per dataclass field, derived once.

Flags, config-file keys, help, defaults and parsing all come from the
fields of ``RunConfig``, ``TrainConfig`` and ``LossConfig``.
"""

from __future__ import annotations

import os
import re
from dataclasses import MISSING, fields, is_dataclass

import pytest

from xmclite import ConfigError, LossConfig, TrainConfig
from xmclite.cli import build_parser, resolve_config
from xmclite.config import KEYS, RunConfig, build_config, parse_config_file

# The 41 keys of the flat RunConfig this schema replaced, minus the unused
# ``triplet_margin`` and the removed ``data_format``.
PINNED_KEYS = {
    "queries_path", "labels_path", "eval_queries_path",
    "hash_dim", "encoder_dim", "search_dim", "dropout",
    "warm_start_classifiers", "epochs", "batch_size", "refresh_interval",
    "positives_per_query", "hard_negatives_per_query", "extra_clf_positives",
    "cache_size", "lr_encoder", "lr_heads", "lr_classifiers", "grad_clip",
    "seed", "eval_every", "temperature", "de_weight", "de_q2l_weight",
    "clf_q2l_weight", "positive_reduction", "batch_reduction", "mode",
    "top_k", "eval_k", "propensity_a", "propensity_b", "out_dir",
    "checkpoint_path", "predictions_path", "metrics_path", "log_path",
    "sim_positive_caps", "sim_negative_caps",
}

# A valid non-default value for every key whose type alone does not give one.
_CHOICES = {"mode": "de", "positive_reduction": "sum",
            "batch_reduction": "sum"}


def _leaf_fields():
    """Names of the fields of the tree that do not hold a dataclass."""
    return [f.name for cls in (RunConfig, TrainConfig, LossConfig)
            for f in fields(cls) if not is_dataclass(getattr(cls(), f.name))]


def _get(config: RunConfig, name: str):
    (owner,) = [obj for obj in (config, config.train, config.train.loss)
                if name in {f.name for f in fields(obj)}]
    return getattr(owner, name)


def _other_value(key):
    """A valid value different from the default, and its text form."""
    if key.name in _CHOICES:
        value = _CHOICES[key.name]
    elif key.type is bool:
        value = not key.default
    elif key.type is int:
        value = key.default + 1
    elif key.type is float:
        value = key.default / 2 if key.default else 0.5
    elif key.type is tuple:
        value = (2, 4)
    else:
        value = f"some/{key.name}"
    text = (",".join(map(str, value)) if isinstance(value, tuple)
            else repr(value) if isinstance(value, float) else str(value))
    return value, text


def test_flat_key_set_is_pinned():
    assert set(KEYS) == PINNED_KEYS
    assert len(KEYS) == 39


def test_keys_are_unique_across_dataclasses_and_documented():
    names = _leaf_fields()
    assert len(names) == len(set(names)) == len(KEYS)
    for key in KEYS.values():
        assert key.help.strip(), key.name


def test_cli_defaults_equal_library_defaults():
    config, explicit = resolve_config(build_parser().parse_args(["train"]))
    assert explicit == set()
    assert config.train == TrainConfig()
    assert config.train.loss == LossConfig()
    for cls in (TrainConfig, LossConfig):
        for f in fields(cls):
            if f.default is not MISSING:
                assert _get(config, f.name) == f.default, f.name
                assert KEYS[f.name].default == f.default, f.name


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_values_round_trip_through_file_and_flag(tmp_path, name):
    key = KEYS[name]
    value, text = _other_value(key)
    assert value != key.default
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n", encoding="utf-8")
    from_file, _ = build_config(parse_config_file(str(cfg_file)))
    flag = "--" + name.replace("_", "-")
    from_flag, explicit = resolve_config(
        build_parser().parse_args(["train", flag, text]))
    assert explicit == {name}
    for config in (from_file, from_flag):
        got = _get(config, name)
        assert got == value and type(got) is type(value), (name, got)


@pytest.mark.parametrize("overrides", [
    {"top_k": "0"}, {"mode": "dense"}, {"lr_heads": "0"},
    {"sim_positive_caps": "0"}, {"sim_negative_caps": "1,-1"},
    {"sim_positive_caps": ""}, {"propensity_b": "0"}, {"eval_k": "1,x"},
    {"temperature": "nan"}, {"dropout": "inf"}, {"de_weight": "2"},
])
def test_invalid_config_values_name_the_key(overrides):
    (name,) = overrides
    with pytest.raises(ConfigError, match=name):
        build_config({}, overrides)


def test_readme_documents_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = re.search(r"### Key configuration groups\n(.*?)\n#", text,
                        re.S).group(1)
    missing = [name for name in KEYS if f"`{name}`" not in section]
    assert missing == []
    assert "triplet_margin" not in text
