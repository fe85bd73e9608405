"""Training-loop tests: gradient routing, schedules, logs, reproducibility."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from conftest import text_dataset
from oracles import assert_finite, loop_metrics_report
from xmclite import (Adam, ConfigError, DegenerateEmbeddingError, LossConfig,
                     TrainConfig, TrainingAbort, Vocabulary, backward,
                     build_index, classifier_loss, collate_batch,
                     evaluate_model, featurize_all, forward, init_params,
                     load_checkpoint, make_dataset, predict_vectors,
                     propensity, query_vectors, retrieval_loss, train,
                     zero_grads)
from xmclite.batching import STREAM_DROPOUT
from xmclite.infer import MODES
from xmclite.train import refresh

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
    return init_params(cfg.hash_dim, cfg.encoder_dim, cfg.search_dim,
                       num_labels, seed=cfg.seed, dropout=cfg.dropout)


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
    ds = _ds()
    cfg = _cfg(warm_start_classifiers=False, loss=LossConfig(de_weight=1.0))
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    assert np.array_equal(params.clf_w, ref.clf_w)
    assert np.array_equal(params.clf_b, ref.clf_b)
    assert np.array_equal(params.classifiers, ref.classifiers)
    assert not np.array_equal(params.embed, ref.embed)
    assert not np.array_equal(params.de_w, ref.de_w)


def test_classifier_only_training_leaves_retrieval_head_untouched():
    ds = _ds()
    cfg = _cfg(warm_start_classifiers=False, loss=LossConfig(de_weight=0.0))
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    assert np.array_equal(params.de_w, ref.de_w)
    assert np.array_equal(params.de_b, ref.de_b)
    # the encoder is shared, so it still moves through the classifier path
    assert not np.array_equal(params.embed, ref.embed)
    assert not np.array_equal(params.clf_w, ref.clf_w)
    assert not np.array_equal(params.classifiers, ref.classifiers)


def test_warm_start_copies_label_embeddings_into_classifiers():
    # with retrieval-only loss the classifier table receives no gradient,
    # so the warm-start values must survive training verbatim
    ds = _ds()
    cfg = _cfg(warm_start_classifiers=True, loss=LossConfig(de_weight=1.0))
    params, _ = train(ds, cfg)
    ref = _reference_init(cfg, ds.num_labels)
    feats = featurize_all(ds.label_texts, ds.vocab)
    expected = forward(ref, feats, mode="eval", heads=("de",)).de_out
    assert np.array_equal(params.classifiers, expected)


def test_one_batch_epoch_equals_one_hand_run_step():
    # one epoch of one batch: train() must give bitwise the parameters of
    # the step assembled here from its parts.  de_weight is not 0.5, so the
    # two loss weights differ, and extra classifier positives make the
    # classifier pool differ from the retrieval pool.
    ds = _ds(num_labels=120)
    cfg = _cfg(epochs=1, batch_size=ds.num_instances,
               loss=LossConfig(de_weight=0.25, extra_clf_positives=1))
    got, _ = train(ds, cfg)

    seed, w = cfg.seed, cfg.loss.de_weight
    q_feats = featurize_all(ds.instance_texts, ds.vocab)
    l_feats = featurize_all(ds.label_texts, ds.vocab)
    params = _reference_init(cfg, ds.num_labels)
    params.classifiers = forward(params, l_feats, heads=("de",)).de_out.copy()
    plan, cache = refresh(params, q_feats, l_feats, ds.positive_sets(), 1,
                          seed, 0, cfg.resolved_cache_size())
    (ids,) = plan
    batch = collate_batch(ids, ds, cache, cfg.positives_per_query,
                          cfg.hard_negatives_per_query, seed, 0, 0,
                          cfg.loss.extra_clf_positives)
    assert batch.clf_pool.size > batch.label_pool.size
    rng = np.random.default_rng([seed, STREAM_DROPOUT, 0, 0])
    q_trace = forward(params, q_feats[ids], mode="train", rng=rng)
    l_trace = forward(params, l_feats[batch.label_pool], mode="train",
                      rng=rng, heads=("de",))
    de_res = retrieval_loss(q_trace.de_out, l_trace.de_out, batch.positives,
                            cfg.loss)
    clf_res = classifier_loss(q_trace.clf_out,
                              params.classifiers[batch.clf_pool],
                              batch.clf_positives, cfg.loss)
    grads = zero_grads(params)
    backward(params, q_trace, d_de=w * de_res.d_queries,
             d_clf=(1 - w) * clf_res.d_queries, out=grads)
    backward(params, l_trace, d_de=w * de_res.d_targets, out=grads)
    grads.classifiers = (batch.clf_pool, (1 - w) * clf_res.d_targets)
    Adam(cfg.lr_encoder, cfg.lr_heads, cfg.lr_classifiers).step(
        params, grads, cfg.grad_clip)

    for name, want in params.arrays().items():
        assert np.array_equal(got.arrays()[name].view(np.int64),
                              want.view(np.int64)), name


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
    w = cfg.loss.de_weight
    for rec in report.records:
        de = (cfg.loss.de_q2l_weight * rec["de_q2l"]
              + (1.0 - cfg.loss.de_q2l_weight) * rec["de_l2q"])
        clf = (cfg.loss.clf_q2l_weight * rec["clf_q2l"]
               + (1.0 - cfg.loss.clf_q2l_weight) * rec["clf_l2q"])
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
    _, cfg, params, _, _, ckpt = logged_run
    loaded, sidecar = load_checkpoint(ckpt)
    for name, mine in params.arrays().items():
        assert np.array_equal(mine, loaded.arrays()[name]), name
    assert sidecar["epoch"] == cfg.epochs
    assert sidecar["config"]["epochs"] == cfg.epochs
    assert sidecar["config"]["loss"]["temperature"] == cfg.loss.temperature


def test_checkpoint_written_even_without_refresh_alignment(tmp_path):
    # refresh_interval longer than the run: only the final save happens
    ckpt = str(tmp_path / "ck.bin")
    cfg = _cfg(epochs=3, refresh_interval=5)
    train(_ds(), cfg, checkpoint_path=ckpt)
    _, sidecar = load_checkpoint(ckpt)
    assert sidecar["epoch"] == 3


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
    for pa, pb in ((log_a, log_b), (ckpt_a, ckpt_b),
                   (ckpt_a + ".json", ckpt_b + ".json")):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


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
    dict(cache_size=-1), dict(eval_k=()), dict(hash_dim=0),
    dict(encoder_dim=0), dict(search_dim=0), dict(dropout=1.0),
    dict(dropout=-0.1), dict(lr_encoder=0.0), dict(lr_heads=-1.0),
    dict(lr_classifiers=0.0), dict(grad_clip=-1.0), dict(eval_every=-1),
    dict(eval_k=(0,)), dict(propensity_b=0.0),
    dict(loss=LossConfig(temperature=0.0)),
])
def test_config_validation_rejects(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw).validate()


def test_cache_size_resolution():
    auto = TrainConfig(hard_negatives_per_query=6, refresh_interval=5)
    assert auto.resolved_cache_size() == 30
    assert TrainConfig(cache_size=17).resolved_cache_size() == 17
    assert TrainConfig(hard_negatives_per_query=0).resolved_cache_size() == 0


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
