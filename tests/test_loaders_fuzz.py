"""Fuzzed readers: corrupt checkpoints, predictions TSVs, and JSONL
instance files.

Whatever the bytes, a reader either returns or raises a package error (or
FileNotFoundError), which the CLI reports as a usage error, never a crash.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmclite import (ConfigError, XmcliteError, init_params, load_dataset,
                     read_predictions)
from xmclite.model import load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _corruptions(valid: bytes):
    """Random bytes, the valid file's magic plus random bytes, or the valid
    file cut short, with one byte overwritten, or with bytes appended."""
    cut = st.integers(0, len(valid)).map(lambda n: valid[:n])
    flip = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda t: valid[:t[0]] + bytes([t[1]]) + valid[t[0] + 1:])
    return st.one_of(st.binary(max_size=120),
                     st.binary(max_size=120).map(lambda b: valid[:8] + b),
                     cut, flip, st.binary(min_size=1, max_size=9).map(
                         lambda b: valid + b))


def _reads_cleanly(read, path) -> None:
    try:
        read(path)
    except (XmcliteError, FileNotFoundError):
        pass


_VALID = init_params(6, 3, 2, 4, seed=0)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    ckpt = str(root / "ckpt.bin")
    save_checkpoint(ckpt, _VALID, extra={"epoch": 1})
    return {name: Path(path).read_bytes() for name, path in
            (("ckpt", ckpt), ("sidecar", ckpt + ".json"))}


def _check_checkpoint(tmp_path, blob, sidecar):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob)
    (tmp_path / "ckpt.bin.json").write_bytes(sidecar)
    _reads_cleanly(load_checkpoint, str(path))


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoints_raise_package_errors(valid_files, tmp_path, data):
    blob = data.draw(_corruptions(valid_files["ckpt"]))
    _check_checkpoint(tmp_path, blob, valid_files["sidecar"])


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_sidecars_raise_package_errors(valid_files,
                                                         tmp_path, data):
    sidecar = data.draw(_corruptions(valid_files["sidecar"]))
    _check_checkpoint(tmp_path, valid_files["ckpt"], sidecar)


@FUZZ
@given(data=st.data())
def test_non_finite_checkpoint_values_are_rejected_by_name(valid_files,
                                                           tmp_path, data):
    arrays = _VALID.arrays()    # in file order, after the 48-byte header
    ends = np.cumsum([a.size for a in arrays.values()])
    index = data.draw(st.integers(0, int(ends[-1]) - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    blob, offset = valid_files["ckpt"], 48 + 8 * index
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob[:offset] + np.float64(bad).tobytes()
                     + blob[offset + 8:])
    name = list(arrays)[int(np.searchsorted(ends, index, side="right"))]
    with pytest.raises(ConfigError, match=f"non-finite {name} value"):
        load_checkpoint(str(path))


_TSV_TEXT = st.text(alphabet=st.sampled_from("0123456789-.e+\t\n\r xnaif_"),
                    max_size=80)


@FUZZ
@given(st.one_of(st.binary(max_size=80),
                 _TSV_TEXT.map(lambda t: t.encode("utf-8"))))
def test_fuzzed_predictions_raise_package_errors(tmp_path, blob):
    path = tmp_path / "p.tsv"
    path.write_bytes(blob)
    _reads_cleanly(read_predictions, str(path))


_INSTANCES = {
    "jsonl": b'{"text": "sig0 w1", "labels": [0, 2]}\n'
             b'{"text": "sig1", "labels": []}\n',
}
_INSTANCE_TEXT = st.text(alphabet=st.sampled_from('{}[]":,0123456789 \n-.e'
                                                  'textlabsig\\u\xe9'),
                         max_size=80)


@pytest.mark.parametrize("fmt", sorted(_INSTANCES))
@FUZZ
@given(data=st.data())
def test_fuzzed_instance_files_raise_package_errors(tmp_path, fmt, data):
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"sig0\nsig1\nsig2\n")
    blob = data.draw(st.one_of(
        _corruptions(_INSTANCES[fmt]),
        _INSTANCE_TEXT.map(lambda t: t.encode("utf-8"))))
    path = tmp_path / "queries.txt"
    path.write_bytes(blob)
    _reads_cleanly(lambda p: load_dataset(p, str(labels)), str(path))
