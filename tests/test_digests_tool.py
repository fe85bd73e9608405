"""The checkpoint digest of ``tools/digests.py``."""

import importlib.util
import json
import os

from xmclite import init_params, save_checkpoint

from conftest import parameter_bytes

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "digests.py")
_spec = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def test_parameter_section_is_the_bytes_before_the_metadata(tmp_path):
    params = init_params(16, 8, 4, 6, seed=3, dropout=0.2)
    path = tmp_path / "model.bin"
    extra = {"epoch": 7, "config": {"hash_dim": 16}}
    save_checkpoint(str(path), params, extra=extra)
    blob = path.read_bytes()
    section = digests._parameter_section(blob)
    assert section == blob[:parameter_bytes(params)]
    assert json.loads(blob[len(section):]) == extra
