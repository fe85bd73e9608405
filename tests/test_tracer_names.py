"""The benchmark's tracer wraps package functions by name and its hooks
read attributes of what they return.

Deleting or renaming a wrapped name or a read attribute breaks the traced
benchmark; these tests make it fail tier-1 as well.
"""

import importlib
import os

import numpy as np

import xmclite
from conftest import id_dataset, text_dataset

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


def test_step_spans_are_direct_children_of_train(monkeypatch):
    # The tracer wraps the step's callees on ``xmclite.train``, and the
    # per-layer breakdown reads their spans as children of ``train.train``:
    # a step body moved to another module would leave those metrics empty.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracer import Tracer

    train_module = importlib.import_module("xmclite.train")
    ds = text_dataset(16, 6, seed=1, hash_dim=256)
    cfg = xmclite.TrainConfig(epochs=1, batch_size=8, positives_per_query=2,
                              hard_negatives_per_query=1, hash_dim=256,
                              encoder_dim=8, search_dim=4)
    tracer = Tracer(check=lambda ok, what: None)
    try:
        tracer.install()
        train_module.train(ds, cfg)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("model.forward_train", "losses.retrieval",
                 "losses.classifier", "model.zero_grads", "model.backward",
                 "batching.collate", "optim.step"):
        parents = {names[span[3]] for span in tracer.spans if span[0] == name}
        assert parents == {"train.train"}, (name, parents)
