"""Training-loop tests: gradient routing, schedules, logs, reproducibility."""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from conftest import text_dataset
from oracles import assert_finite, loop_metrics_report
from xmclite import (Adam, ConfigError, DegenerateEmbeddingError,
                     TrainConfig, TrainingAbort, Vocabulary, backward,
                     build_index, classifier_loss, collate_batch,
                     evaluate_model, forward, init_params,
                     load_checkpoint, make_dataset, predict_vectors,
                     propensity, query_vectors, retrieval_loss, train,
                     zero_grads)
from xmclite import infer
from xmclite.batching import STREAM_DROPOUT
from xmclite.config import KEYS, RunConfig
from xmclite.infer import MODES
from xmclite.losses import DE_Q2L_WEIGHT
from xmclite.train import (TRAIN_DTYPE, negative_cache_size, refresh,
                           training_features)

# the package's ``train`` attribute is the function, not the module
train_module = importlib.import_module("xmclite.train")

HASH = 512


def _cfg(**kw) -> TrainConfig:
    base = dict(epochs=2, batch_size=8, refresh_interval=1,
                positives_per_query=2, hard_negatives_per_query=2,
                hash_dim=HASH, encoder_dim=16, search_dim=8, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def _ds(n=24, num_labels=6, seed=1):
    return text_dataset(n, num_labels, seed=seed, hash_dim=HASH)


def _reference_init(cfg: TrainConfig, num_labels: int):
    """The parameters ``train`` starts from, in its dtype."""
    return init_params(cfg.hash_dim, cfg.encoder_dim, cfg.search_dim,
                       num_labels, seed=cfg.seed, dropout=cfg.dropout,
                       dtype=TRAIN_DTYPE)


def _same_bits(got, want) -> bool:
    """float64 ``got`` holds bitwise the float64 upcast of ``want``."""
    return got.dtype == np.float64 and np.array_equal(
        got.view(np.int64), want.astype(np.float64).view(np.int64))


@pytest.fixture(scope="module")
def logged_run(tmp_path_factory):
    """One 5-epoch run shared by the schedule/log/checkpoint tests."""
    out = tmp_path_factory.mktemp("logged_run")
    ds = _ds()
    cfg = _cfg(epochs=5, refresh_interval=2, eval_every=2, eval_k=(1,))
    log = str(out / "train_log.jsonl")
    ckpt = str(out / "checkpoint.bin")
    params, report = train(ds, cfg, log_path=log, checkpoint_path=ckpt)
    return ds, cfg, params, report, log, ckpt


def test_retrieval_only_training_leaves_classifier_side_untouched():
    # the classifier rows keep their warm start, which
    # test_warm_start_copies_label_embeddings_into_classifiers checks
    ds = _ds()
    cfg = _cfg(de_weight=1.0)
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    assert _same_bits(params.clf_w, ref.clf_w)
    assert _same_bits(params.clf_b, ref.clf_b)
    assert not np.array_equal(params.embed, ref.embed)
    assert not np.array_equal(params.de_w, ref.de_w)


def test_classifier_only_training_leaves_retrieval_head_untouched():
    ds = _ds()
    cfg = _cfg(de_weight=0.0)
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    assert _same_bits(params.de_w, ref.de_w)
    assert _same_bits(params.de_b, ref.de_b)
    # the encoder is shared, so it still moves through the classifier path
    assert not np.array_equal(params.embed, ref.embed)
    assert not np.array_equal(params.clf_w, ref.clf_w)
    assert not np.array_equal(params.classifiers, ref.classifiers)


def test_warm_start_copies_label_embeddings_into_classifiers():
    # with retrieval-only loss the classifier table receives no gradient,
    # so the warm-start values must survive training verbatim
    ds = _ds()
    cfg = _cfg(de_weight=1.0)
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    feats = training_features(ds.label_texts, ds.vocab)
    expected = forward(ref, feats, mode="eval", heads=("de",)).de_out
    assert expected.dtype == TRAIN_DTYPE
    assert _same_bits(params.classifiers, expected)


def test_rows_of_labels_without_training_positives_move_only_as_negatives():
    # such a label is never a positive in a batch, so only the
    # query-anchored classifier loss, where it is a pool negative, gives its
    # row a gradient: at clf_q2l_weight 0 every such row keeps its warm start
    ds = _ds(num_labels=60)
    unseen = np.flatnonzero(ds.label_frequencies == 0)
    assert unseen.size > 0
    ref = _reference_init(_cfg(), ds.num_labels)
    warm = forward(ref, training_features(ds.label_texts, ds.vocab),
                   mode="eval", heads=("de",)).de_out[unseen]
    kept = {}
    for w in (0.0, 0.5):
        params, _ = train(ds, _cfg(clf_q2l_weight=w))
        rows = params.classifiers[unseen]
        kept[w] = [_same_bits(got, want) for got, want in zip(rows, warm)]
    assert all(kept[0.0])
    assert not all(kept[0.5])


@pytest.mark.parametrize("neg", [2, 0])
def test_labels_are_embedded_once_before_the_first_step(monkeypatch, neg):
    # the warm start takes epoch 0's mining embeddings when there are any,
    # and embeds the labels itself when nothing is mined; ``embedded`` holds
    # the step count at each eval pass over the labels
    ds = _ds()
    embedded, steps = [], []
    embed_rows, step = train_module.embed_rows, Adam.step

    def spy_embed_rows(params, parts, feats=None):
        if feats is not None and feats.shape[0] == ds.num_labels:
            embedded.append(len(steps))
        return embed_rows(params, parts, feats)

    def spy_step(self, *args, **kw):
        steps.append(1)
        return step(self, *args, **kw)

    monkeypatch.setattr(train_module, "embed_rows", spy_embed_rows)
    monkeypatch.setattr(Adam, "step", spy_step)
    train(ds, _cfg(epochs=1, hard_negatives_per_query=neg))
    assert embedded == [0]


def test_one_batch_epoch_equals_one_hand_run_step():
    # one epoch of one batch: train() must give bitwise the parameters of
    # the step assembled here from its parts.  de_weight is not 0.5, so the
    # two loss weights differ; both losses score the one label pool.
    ds = _ds(num_labels=120)
    cfg = _cfg(epochs=1, batch_size=ds.num_instances,
               de_weight=0.25)
    got, _ = train(ds, cfg)

    seed, w = cfg.seed, cfg.de_weight
    q_feats = training_features(ds.instance_texts, ds.vocab)
    l_feats = training_features(ds.label_texts, ds.vocab)
    params = _reference_init(cfg, ds.num_labels)
    params.classifiers = forward(params, l_feats, heads=("de",)).de_out.copy()
    plan, cache, _ = refresh(params, q_feats, l_feats, ds.positive_sets(), 1,
                             seed, 0, negative_cache_size(
                                 cfg.hard_negatives_per_query,
                                 cfg.refresh_interval))
    (ids,) = plan
    batch = collate_batch(ids, ds, cache, cfg.positives_per_query,
                          cfg.hard_negatives_per_query, seed, 0, 0)
    rng = np.random.default_rng([seed, STREAM_DROPOUT, 0, 0])
    q_trace = forward(params, q_feats[ids], mode="train", rng=rng)
    l_trace = forward(params, l_feats[batch.label_pool], mode="train",
                      rng=rng, heads=("de",))
    de_res = retrieval_loss(q_trace.de_out, l_trace.de_out, batch.positives,
                            cfg)
    clf_res = classifier_loss(q_trace.clf_out,
                              params.classifiers[batch.label_pool],
                              batch.positives, cfg)
    grads = backward(params, [
        (q_trace, w * de_res.d_queries, (1 - w) * clf_res.d_queries),
        (l_trace, w * de_res.d_targets, None)], out=zero_grads(params))
    grads.classifiers = (batch.label_pool, (1 - w) * clf_res.d_targets)
    Adam(cfg.lr_encoder, cfg.lr_heads, cfg.lr_classifiers).step(
        params, grads, cfg.grad_clip)

    for name, want in params.arrays().items():
        assert want.dtype == TRAIN_DTYPE, name
        assert _same_bits(got.arrays()[name], want), name


def test_training_hands_adam_only_arrays_of_its_dtype(monkeypatch):
    # every gradient, parameter and moment a step of train() reaches Adam
    # with, the warm-started classifier table among them
    seen = set()
    step_rows = Adam._step_rows

    def spy(self, name, given, table, bc1, bc2):
        seen.update({given[1].dtype, table.dtype, self.m[name].dtype,
                     self.v[name].dtype})
        return step_rows(self, name, given, table, bc1, bc2)

    monkeypatch.setattr(Adam, "_step_rows", spy)
    train(_ds(), _cfg(epochs=1))
    assert seen == {np.dtype(TRAIN_DTYPE)}


def test_refresh_schedule_stamps(logged_run):
    _, cfg, _, report, _, _ = logged_run
    flags = [r["refreshed"] for r in report.records]
    assert flags == [e % cfg.refresh_interval == 0 for e in range(cfg.epochs)]


def test_first_epoch_always_refreshes_even_with_long_interval():
    params, report = train(_ds(), _cfg(epochs=2, refresh_interval=50))
    assert [r["refreshed"] for r in report.records] == [True, False]
    assert_finite(params)


def test_epoch_records_decompose_exactly(logged_run):
    _, cfg, _, report, _, _ = logged_run
    w = cfg.de_weight
    for rec in report.records:
        de = (DE_Q2L_WEIGHT * rec["de_q2l"]
              + (1.0 - DE_Q2L_WEIGHT) * rec["de_l2q"])
        clf = (cfg.clf_q2l_weight * rec["clf_q2l"]
               + (1.0 - cfg.clf_q2l_weight) * rec["clf_l2q"])
        assert rec["de"] == pytest.approx(de, abs=1e-12)
        assert rec["clf"] == pytest.approx(clf, abs=1e-12)
        assert rec["total"] == pytest.approx(w * de + (1.0 - w) * clf,
                                             abs=1e-12)


def test_epoch_records_have_expected_keys(logged_run):
    _, cfg, _, report, _, _ = logged_run
    base = {"epoch", "de_q2l", "de_l2q", "clf_q2l", "clf_l2q",
            "de", "clf", "total", "refreshed"}
    for e, rec in enumerate(report.records):
        scheduled = ((e + 1) % cfg.eval_every == 0) or e == cfg.epochs - 1
        want = base | {"metrics"} if scheduled else base
        assert set(rec) == want, f"epoch {e}"
        assert rec["epoch"] == e


def test_final_metrics_match_last_record(logged_run):
    _, cfg, _, report, _, _ = logged_run
    assert report.final_metrics == report.records[-1]["metrics"]
    assert set(report.final_metrics) == set(MODES)
    for mode in MODES:
        assert "P@1" in report.final_metrics[mode]
    assert report.wall_seconds > 0.0


def test_log_lines_are_stable_sorted_json(logged_run):
    _, cfg, _, report, log, _ = logged_run
    with open(log, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == cfg.epochs
    parsed = [json.loads(line) for line in lines]
    assert parsed == report.records
    for line, rec in zip(lines, parsed):
        assert line == json.dumps(rec, sort_keys=True)


def test_checkpoint_reflects_final_parameters(logged_run):
    # train() returns float64 tables, bitwise the checkpoint's
    _, cfg, params, _, _, ckpt = logged_run
    loaded, meta = load_checkpoint(ckpt)
    for name, mine in params.arrays().items():
        assert _same_bits(mine, loaded.arrays()[name]), name
    assert meta["epoch"] == cfg.epochs
    assert meta["config"]["epochs"] == cfg.epochs
    assert meta["config"]["temperature"] == cfg.temperature


def test_checkpoint_records_the_run_as_flat_training_keys(logged_run):
    _, cfg, _, _, _, ckpt = logged_run
    recorded = load_checkpoint(ckpt)[1]["config"]
    training_keys = set(KEYS) - {f.name for f in fields(RunConfig)}
    assert set(recorded) == {f.name for f in fields(TrainConfig)}
    assert set(recorded) == training_keys
    # JSON gives the comma-list key back as a list
    assert TrainConfig(**{**recorded,
                          "eval_k": tuple(recorded["eval_k"])}) == cfg


def test_in_run_evaluation_scores_the_float64_checkpoint(monkeypatch,
                                                         tmp_path):
    # so the metrics of a run are those of its checkpoint's read path
    scored = []
    evaluate = train_module.evaluate_model

    def spy(params, *args, **kw):
        scored.append(params.copy())
        return evaluate(params, *args, **kw)

    monkeypatch.setattr(train_module, "evaluate_model", spy)
    ds, ckpt = _ds(), str(tmp_path / "ck.bin")
    cfg = _cfg(epochs=2, eval_every=1, eval_k=(1, 3))
    _, report = train(ds, cfg, checkpoint_path=ckpt)
    loaded, _ = load_checkpoint(ckpt)
    assert len(scored) == 2
    for name, arr in scored[-1].arrays().items():
        assert _same_bits(arr, loaded.arrays()[name]), name
    assert report.final_metrics == evaluate(
        loaded, ds, cfg.eval_k, propensity_dataset=ds,
        propensity_a=cfg.propensity_a, propensity_b=cfg.propensity_b)


def test_checkpoint_written_even_without_refresh_alignment(tmp_path):
    # refresh_interval longer than the run: only the final save happens
    ckpt = str(tmp_path / "ck.bin")
    cfg = _cfg(epochs=3, refresh_interval=5)
    train(_ds(), cfg, checkpoint_path=ckpt)
    _, meta = load_checkpoint(ckpt)
    assert meta["epoch"] == 3


def test_two_runs_are_bit_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        log = str(out / "log.jsonl")
        ckpt = str(out / "ck.bin")
        ds = _ds()
        params, report = train(ds, _cfg(epochs=3, eval_every=3),
                               log_path=log, checkpoint_path=ckpt)
        paths.append((log, ckpt, report.records, params))
    (log_a, ckpt_a, rec_a, par_a), (log_b, ckpt_b, rec_b, par_b) = paths
    assert rec_a == rec_b
    for name, x in par_a.arrays().items():
        assert x.tobytes() == par_b.arrays()[name].tobytes(), name
    for pa, pb in ((log_a, log_b), (ckpt_a, ckpt_b)):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_scan_threads_change_no_byte_of_a_run(monkeypatch, tmp_path):
    # Small budgets cut mining's and evaluation's 24 x 6 scans into 6
    # blocks of 4 queries and 2 label tiles each: 6 units of work.
    monkeypatch.setattr(infer, "SCORE_BLOCK_BYTES", 8 * 4 * 3)
    monkeypatch.setattr(infer, "MIN_BLOCK_ROWS", 4)
    outputs = []
    for workers in (1, 3):
        monkeypatch.setattr(infer, "scan_threads", lambda: workers)
        log, ckpt = tmp_path / f"log{workers}", tmp_path / f"ck{workers}"
        train(_ds(), _cfg(epochs=3, eval_every=1), log_path=str(log),
              checkpoint_path=str(ckpt))
        outputs.append((log.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]


def test_untrained_model_scores_at_chance_level():
    # ground truth drawn independently of the texts: any fixed predictor
    # has hit probability exactly 1/num_labels per query, so the mean over
    # 600 queries lands in a 3-sigma band around 0.1
    rng = np.random.default_rng(5)
    vocab = Vocabulary(4096)
    texts = [vocab.tokenize(f"w{i}a w{i}b") for i in range(600)]
    truth = [[int(rng.integers(10))] for _ in range(600)]
    labels = [vocab.tokenize(f"label {l}") for l in range(10)]
    ds = make_dataset(texts, labels, truth, 10, vocab)
    params = init_params(4096, 16, 8, 10, seed=0)
    p1 = evaluate_model(params, ds, k_list=(1,), modes=("de",))["de"]["P@1"]
    assert 0.0633 <= p1 <= 0.1367


def _evaluate_mode_by_mode(params, ds, k_list, modes):
    """evaluate_model as separate index, query embedding, ranking and
    per-query metric passes for each mode."""
    props = propensity(ds.label_frequencies, ds.num_instances)
    out = {}
    for mode in modes:
        index = build_index(params, ds, mode)
        q_vecs = query_vectors(params, ds.instance_texts, ds.vocab, mode)
        ranked = [ids for ids, _ in predict_vectors(index, q_vecs, max(k_list))]
        out[mode] = loop_metrics_report(ranked, ds.positive_sets(), props,
                                        k_list)
    return out


@pytest.mark.parametrize("modes", [MODES, ("de",), ("clf",), ("concat",),
                                   ("concat", "de")])
def test_evaluate_model_equals_mode_by_mode_evaluation(logged_run, modes):
    ds, _, params, _, _, _ = logged_run
    k_list = (3, 1, 8, 3)      # unsorted, repeated, and k > num_labels
    got = evaluate_model(params, ds, k_list, modes)
    want = _evaluate_mode_by_mode(params, ds, k_list, modes)
    assert got == want and list(got) == list(want)


def test_zero_classifier_row_fails_only_modes_that_read_it(logged_run):
    ds, _, params, _, _, _ = logged_run
    broken = params.copy()
    broken.classifiers[2] = 0.0
    assert (evaluate_model(broken, ds, (1, 3), ("de",))
            == evaluate_model(params, ds, (1, 3), ("de",)))
    for mode in ("clf", "concat"):
        with pytest.raises(DegenerateEmbeddingError, match=r"labels \[2\]"):
            evaluate_model(broken, ds, (1, 3), (mode,))
    with pytest.raises(DegenerateEmbeddingError):
        evaluate_model(broken, ds, (1, 3))


def test_divergent_run_aborts(tmp_path):
    log = str(tmp_path / "log.jsonl")
    cfg = _cfg(lr_encoder=1e200, lr_heads=1e150)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingAbort):
            train(_ds(), cfg, log_path=log)
    assert os.path.exists(log)


def test_vocab_width_mismatch_rejected():
    with pytest.raises(ConfigError):
        train(_ds(), _cfg(hash_dim=1024))


def test_empty_dataset_rejected():
    vocab = Vocabulary(HASH)
    empty = make_dataset([], [vocab.tokenize("only label")], [], 1, vocab)
    with pytest.raises(ConfigError):
        train(empty, _cfg())


@pytest.mark.parametrize("kw", [
    dict(epochs=0), dict(batch_size=0), dict(refresh_interval=0),
    dict(positives_per_query=0), dict(hard_negatives_per_query=-1),
    dict(seed=-1), dict(eval_k=()), dict(hash_dim=0),
    dict(encoder_dim=0), dict(search_dim=0), dict(dropout=1.0),
    dict(dropout=-0.1), dict(lr_encoder=0.0), dict(lr_heads=-1.0),
    dict(lr_classifiers=0.0), dict(grad_clip=-1.0), dict(eval_every=-1),
    dict(eval_k=(0,)), dict(propensity_b=0.0),
    dict(temperature=0.0),
])
def test_config_validation_rejects(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw).validate()


def test_each_refresh_mines_cap_times_interval_negatives(monkeypatch):
    sizes = []
    mine = train_module.mine_hard_negatives

    def spy(q_vecs, l_vecs, positive_sets, cache_size):
        sizes.append(cache_size)
        return mine(q_vecs, l_vecs, positive_sets, cache_size)

    monkeypatch.setattr(train_module, "mine_hard_negatives", spy)
    # epochs 0 and 2 refresh; each mines enough for the two epochs it serves
    train(_ds(), _cfg(epochs=4, refresh_interval=2, hard_negatives_per_query=3))
    assert sizes == [6, 6]
    sizes.clear()
    train(_ds(), _cfg(epochs=4, refresh_interval=2, hard_negatives_per_query=0))
    assert sizes == []


def test_training_without_hard_negatives():
    params, report = train(_ds(), _cfg(hard_negatives_per_query=0))
    assert_finite(params)
    assert all(np.isfinite(r["total"]) for r in report.records)


def test_eval_dataset_is_the_one_scored():
    ds = _ds(seed=1)
    held_out = _ds(n=12, seed=9)
    cfg = _cfg(epochs=2, eval_every=1, eval_k=(1,))
    params, report = train(ds, cfg, eval_dataset=held_out)
    # propensities always come from the training split's label frequencies
    want = evaluate_model(params, held_out, k_list=(1,),
                          propensity_dataset=ds)
    assert report.records[-1]["metrics"] == want


@pytest.mark.parametrize("held_out, message", [
    (_ds(n=12, num_labels=8, seed=9),
     "num_labels=8 but the training set has num_labels=6"),
    (text_dataset(12, 6, seed=9, hash_dim=2 * HASH),
     f"vocab.hash_dim={2 * HASH} but the training set has "
     f"vocab.hash_dim={HASH}"),
], ids=["num_labels", "hash_dim"])
def test_mismatched_eval_dataset_is_rejected_before_training(tmp_path,
                                                             held_out, message):
    log = tmp_path / "log.jsonl"
    with pytest.raises(ConfigError, match=f"eval_dataset has {message}"):
        train(_ds(), _cfg(eval_every=1), log_path=str(log),
              eval_dataset=held_out)
    assert not log.exists()


def test_undefined_propensity_model_is_rejected_before_training(tmp_path):
    # in-training metrics need propensities, undefined for N=2 (ln N <= 1)
    log = tmp_path / "log.jsonl"
    with pytest.raises(ConfigError, match="propensity model undefined"):
        train(_ds(n=2), _cfg(eval_every=1), log_path=str(log))
    assert not log.exists()
    train(_ds(n=2), _cfg(eval_every=0), log_path=str(log))
    assert log.exists()


def test_quick_overfit_reaches_high_precision():
    ds = text_dataset(96, 16, seed=0, hash_dim=2048,
                      positives_per_instance=(1, 2))
    cfg = TrainConfig(epochs=25, batch_size=32, refresh_interval=5,
                      positives_per_query=2, hard_negatives_per_query=2,
                      hash_dim=2048, encoder_dim=32, search_dim=16, seed=0)
    params, report = train(ds, cfg)
    assert report.records[-1]["total"] < report.records[0]["total"]
    m = evaluate_model(params, ds, k_list=(1,), modes=("de",))
    assert m["de"]["P@1"] >= 0.9
