"""The configuration schema: one flat key per dataclass field, derived once.

Flags, config-file keys, help, defaults and parsing all come from the
fields of ``RunConfig`` and ``TrainConfig``.
"""

from __future__ import annotations

import math
import os
import re
import typing
from dataclasses import MISSING, fields, is_dataclass

import pytest

from xmclite import ConfigError, TrainConfig
from xmclite.cli import build_parser, resolve_config
from xmclite.config import KEYS, RunConfig, build_config, parse_config_file

# The 41 keys of the flat RunConfig this schema replaced, minus the unused
# ``triplet_margin``, the removed ``data_format`` and ``cache_size``, and the
# ``positive_reduction``, ``extra_clf_positives``, ``de_q2l_weight`` and
# ``warm_start_classifiers`` whose other values no workload chose.
PINNED_KEYS = {
    "queries_path", "labels_path", "eval_queries_path",
    "hash_dim", "encoder_dim", "search_dim", "dropout",
    "epochs", "batch_size", "refresh_interval",
    "positives_per_query", "hard_negatives_per_query",
    "lr_encoder", "lr_heads", "lr_classifiers", "grad_clip",
    "seed", "eval_every", "temperature", "de_weight",
    "clf_q2l_weight", "batch_reduction", "mode",
    "top_k", "eval_k", "propensity_a", "propensity_b", "out_dir",
    "checkpoint_path", "predictions_path", "metrics_path", "log_path",
    "sim_positive_caps", "sim_negative_caps",
}

# A valid non-default value for every key whose type alone does not give one.
_CHOICES = {"mode": "de", "batch_reduction": "sum"}


def _leaf_fields():
    """Names of the fields of the tree that do not hold a dataclass."""
    return [f.name for cls in (RunConfig, TrainConfig)
            for f in fields(cls) if not is_dataclass(getattr(cls(), f.name))]


def _get(config: RunConfig, name: str):
    (owner,) = [obj for obj in (config, config.train)
                if name in {f.name for f in fields(obj)}]
    return getattr(owner, name)


def _other_value(key):
    """A valid value different from the default, and its text form."""
    if key.name in _CHOICES:
        value = _CHOICES[key.name]
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
    assert len(KEYS) == 34


def test_keys_are_unique_across_dataclasses_and_documented():
    names = _leaf_fields()
    assert len(names) == len(set(names)) == len(KEYS)
    for key in KEYS.values():
        assert key.help.strip(), key.name


def test_cli_defaults_equal_library_defaults():
    config, explicit = resolve_config(build_parser().parse_args(["train"]))
    assert explicit == set()
    assert config.train == TrainConfig()
    for f in fields(TrainConfig):
        assert f.default is not MISSING, f.name
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


def test_config_file_key_given_twice_is_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs = 3\nbatch_size = 8\n# again\nepochs = 9\n",
                        encoding="utf-8")
    with pytest.raises(ConfigError, match="run.cfg:4: config key 'epochs' "
                                          "given twice, on lines 1 and 4"):
        parse_config_file(str(cfg_file))


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


@pytest.mark.parametrize("name, text", [("eval_k", "1,,5"),
                                        ("sim_positive_caps", ",3,")])
def test_comma_list_with_an_empty_entry_is_rejected(tmp_path, name, text):
    message = re.escape(f"{name} expects a comma list of integers, "
                        f"got {text!r}")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        build_config(parse_config_file(str(cfg_file)))
    flag = "--" + name.replace("_", "-")
    with pytest.raises(ConfigError, match=message):
        resolve_config(build_parser().parse_args(["train", flag, text]))


TUPLE_KEYS = sorted(name for name, key in KEYS.items() if key.type is tuple)
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


@pytest.mark.parametrize("name", TUPLE_KEYS)
@pytest.mark.parametrize("text, repeated", [("5,5,1", 5), ("2, 3,02", 2)])
def test_comma_list_with_a_repeated_entry_is_rejected(tmp_path, name, text,
                                                      repeated):
    # a repeat would fold into one P@k key or write one sweep row twice
    values = tuple(int(part) for part in text.split(","))
    message = re.escape(f"{name} lists {repeated} more than once, "
                        f"in {','.join(map(str, values))}")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        build_config(parse_config_file(str(cfg_file)))
    flag = "--" + name.replace("_", "-")
    with pytest.raises(ConfigError, match=message):
        resolve_config(build_parser().parse_args(["train", flag, text]))
    # the library applies the same rule
    library = (TrainConfig(**{name: values}) if name in TRAIN_KEYS
               else RunConfig(**{name: values}))
    with pytest.raises(ConfigError, match=message):
        library.validate()


def _float_fields(cls):
    hints = typing.get_type_hints(cls)
    return [f.name for f in fields(cls) if hints[f.name] is float]


FLOAT_FIELDS = _float_fields(TrainConfig)
LOSS_KEYS = ("temperature", "de_weight", "clf_q2l_weight", "batch_reduction")


def test_float_fields_cover_the_learning_rates_and_the_loss():
    assert {"temperature", "propensity_a", "propensity_b", "lr_encoder",
            "grad_clip", "dropout", "de_weight"} <= set(FLOAT_FIELDS)


# Case ids stay stable across revisions: the loss keys' cases keep the
# ``LossConfig.`` prefix they were first recorded under.
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS, ids=[
    f"{'LossConfig' if n in LOSS_KEYS else 'TrainConfig'}.{n}"
    for n in FLOAT_FIELDS])
def test_validate_rejects_a_non_finite_float_by_name(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        TrainConfig(**{name: value}).validate()


LOSS_KEY_ERRORS = [
    ("temperature", "0", "temperature must be > 0, got 0.0"),
    ("temperature", "-inf", "temperature must be finite, got -inf"),
    ("de_weight", "1.5", "de_weight must be in [0, 1], got 1.5"),
    ("de_weight", "nan", "de_weight must be finite, got nan"),
    ("clf_q2l_weight", "-0.25",
     "clf_q2l_weight must be in [0, 1], got -0.25"),
    ("clf_q2l_weight", "inf", "clf_q2l_weight must be finite, got inf"),
    ("batch_reduction", "max",
     "batch_reduction must be one of ('mean', 'sum'), got 'max'"),
]


@pytest.mark.parametrize("name, text, message", LOSS_KEY_ERRORS,
                         ids=[f"{n}={t}" for n, t, _ in LOSS_KEY_ERRORS])
def test_a_loss_key_error_reads_the_same_from_file_flag_and_library(
        tmp_path, name, text, message):
    pattern = f"^{re.escape(message)}$"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=pattern):
        build_config(parse_config_file(str(cfg_file)))
    flag = "--" + name.replace("_", "-")
    with pytest.raises(ConfigError, match=pattern):
        resolve_config(build_parser().parse_args(["train", f"{flag}={text}"]))
    with pytest.raises(ConfigError, match=pattern):
        TrainConfig(**{name: KEYS[name].type(text)}).validate()


def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_space(
        tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# runs\n"
                        "out_dir = runs/exp#3\n"
                        "labels_path = data/set#2/labels.txt # the labels\n"
                        "epochs = 4 # four\n"
                        "batch_size = 8\t#eight\n"
                        "   # indented\n", encoding="utf-8")
    assert parse_config_file(str(cfg_file)) == {
        "out_dir": "runs/exp#3", "labels_path": "data/set#2/labels.txt",
        "epochs": "4", "batch_size": "8"}
    config, _ = build_config(parse_config_file(str(cfg_file)))
    assert config.out_dir == "runs/exp#3"
    assert config.labels_path == "data/set#2/labels.txt"
    assert config.train.epochs == 4


def test_seed_must_fit_the_64_bit_sampling_key():
    TrainConfig(seed=2 ** 64 - 1).validate()
    for seed in (2 ** 64, 2 ** 70, -1):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=seed).validate()
    with pytest.raises(ConfigError, match="seed"):
        build_config({}, {"seed": str(2 ** 64)})


def test_readme_documents_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = re.search(r"### Key configuration groups\n(.*?)\n#", text,
                        re.S).group(1)
    missing = [name for name in KEYS if f"`{name}`" not in section]
    assert missing == []
    removed = ["triplet_margin", "data_format", "cache_size", "mining",
               "search", "positive_reduction", "extra_clf_positives",
               "de_q2l_weight", "warm_start_classifiers"]
    named = [name for name in removed if f"`{name}`" in section]
    assert named == []
    assert "triplet_margin" not in text
