"""The benchmark's tracer wraps package functions by name and its hooks
read attributes of what they return.

Deleting or renaming a wrapped name or a read attribute breaks the traced
benchmark; these tests make it fail tier-1 as well.
"""

import importlib
import os

import numpy as np

import xmclite
from conftest import id_dataset

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


def test_collate_hook_counts_each_querys_pool_positives(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracer import Tracer

    # the training loop's module, where the tracer wraps ``collate_batch``
    train_module = importlib.import_module("xmclite.train")
    ds = id_dataset(np.random.default_rng(0), 12, 20, max_pos=5)
    tracer = Tracer(check=lambda ok, what: None)
    try:
        tracer.install()
        batch = train_module.collate_batch(np.arange(12), ds, None, 2, 0, 0)
    finally:
        tracer.uninstall()
    counted = [v for _, v in tracer.counts["batching.pb"]]
    assert counted == batch.positives.sum(axis=1).tolist()
    assert [v for _, v in tracer.counts["batching.pool_labels"]] == \
        [batch.label_pool.size]
