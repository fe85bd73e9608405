"""The benchmark's tracer wraps package functions by name.

Deleting or renaming a wrapped name breaks the traced benchmark; this test
makes it fail tier-1 as well.
"""

import os

import xmclite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_src_and_restores_every_patch(monkeypatch):
    assert os.path.abspath(xmclite.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracer import Tracer

    tracer = Tracer(check=lambda ok, what: None)
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr}"
