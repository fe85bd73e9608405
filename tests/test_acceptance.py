"""Acceptance gate: one check per shipping criterion.

Each test prints a single verdict line (visible under ``pytest -s`` and in
failure output) carrying the measured quantity next to its budget.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np
import pytest

from conftest import (id_dataset, mask_of, random_positive_sets, sets_of,
                      text_dataset, unit_rows, write_text_dataset)
from oracles import (bf_collate, bf_hard_negatives, bf_pool_loss,
                     bf_precision_at_k, bf_psp_at_k, bf_symmetric_loss,
                     bf_top_k, dense_grads, finite_difference,
                     max_relative_error)
from xmclite import (LossConfig, TrainConfig, Vocabulary, evaluate_model,
                     make_dataset, synth_dataset, train)
from xmclite.batching import collate_batch
from xmclite.cli import main
from xmclite.data import featurize_all
from xmclite.infer import LabelIndex, label_vectors, predict_vectors, query_vectors
from xmclite.losses import (classifier_loss, combined_loss,
                            pooled_softmax_loss, retrieval_loss)
from xmclite.metrics import precision_at_k, psp_at_k
from xmclite.model import backward, forward, init_params, zero_grads
from xmclite.negatives import mine_hard_negatives

MODES = ("de", "clf", "concat")


def _verdict(tag: str, ok, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_01_unified_loss_gradients_match_finite_differences():
    started = time.perf_counter()
    vocab = Vocabulary(8)
    q_texts = [vocab.tokenize(t) for t in
               ["stone river north", "amber field west", "cedar grove stone"]]
    l_texts = [vocab.tokenize(t) for t in
               ["stone river", "river north amber", "amber field", "west",
                "cedar grove"]]
    ds = make_dataset(q_texts, l_texts, [[0, 2], [1, 3], [2, 4]], 5, vocab)
    params = init_params(8, 4, 3, 5, seed=1, dropout=0.1)
    cfg = LossConfig(temperature=0.05, de_weight=0.5,
                     de_q2l_weight=0.5, clf_q2l_weight=0.5)
    q_feats = featurize_all(ds.instance_texts, vocab)
    l_feats_all = featurize_all(ds.label_texts, vocab)

    # mine and collate one real batch (3 queries, 2 positives + 1 negative)
    q_emb = forward(params, q_feats, mode="eval", heads=("de",)).de_out
    l_emb = forward(params, l_feats_all, mode="eval", heads=("de",)).de_out
    cache = mine_hard_negatives(q_emb, l_emb, ds.positive_sets(), 3)
    batch = collate_batch(np.arange(3), ds, cache, 2, 1, 0)
    l_feats = l_feats_all[batch.label_pool]

    def run(with_grads):
        # re-seeded per call, so every probe draws the same dropout masks and
        # the loss is a plain function of the parameters
        rng = np.random.default_rng([1, 4, 0, 0])
        q_tr = forward(params, q_feats, mode="train", rng=rng)
        l_tr = forward(params, l_feats, mode="train", rng=rng, heads=("de",))
        de_res = retrieval_loss(q_tr.de_out, l_tr.de_out, batch.positives,
                                cfg, with_grads=with_grads)
        clf_rows = params.classifiers[batch.clf_pool]
        clf_res = classifier_loss(q_tr.clf_out, clf_rows,
                                  batch.clf_positives, cfg,
                                  with_grads=with_grads)
        total = combined_loss(de_res.value, clf_res.value, cfg.de_weight)
        if not with_grads:
            return total
        grads = zero_grads(params)
        w = cfg.de_weight
        backward(params, q_tr, d_de=w * de_res.d_queries,
                 d_clf=(1.0 - w) * clf_res.d_queries, out=grads)
        backward(params, l_tr, d_de=w * de_res.d_targets, out=grads)
        # the classifier rows' gradient, paired with the pool as train() does
        grads.classifiers = (batch.clf_pool, (1.0 - w) * clf_res.d_targets)
        return total, grads

    _, grads = run(True)
    names = list(params.arrays())
    numeric = finite_difference(lambda: run(False),
                                [params.arrays()[k] for k in names],
                                step=1e-6)
    analytic = [dense_grads(grads, params)[k] for k in names]
    err = max_relative_error(analytic, numeric)
    elapsed = time.perf_counter() - started
    _verdict("criterion 01 gradient check",
             bool(err < 1e-4 and elapsed < 10.0),
             f"max relative error {err:.3e} (budget 1e-4) "
             f"in {elapsed:.2f}s (budget 10s)")


def test_criterion_02_losses_match_brute_force_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 13))
        anchors = rng.normal(size=(n, 5))
        targets = rng.normal(size=(m, 5))
        member = rng.random((n, m)) < 0.4
        pos, pos_t = sets_of(member), sets_of(member.T)
        temp = float(rng.uniform(0.05, 1.0))
        pr = ("mean", "sum")[int(rng.integers(2))]
        br = ("mean", "sum")[int(rng.integers(2))]
        wd = float(rng.random())
        cfg = LossConfig(temperature=temp, de_q2l_weight=wd,
                         clf_q2l_weight=1.0 - wd, positive_reduction=pr,
                         batch_reduction=br)

        q2l = pooled_softmax_loss(anchors, targets, member, temp, pr, br,
                                  with_grads=False).value
        worst = max(worst, abs(q2l - bf_pool_loss(anchors, targets, pos,
                                                  temp, pr, br)))
        l2q = pooled_softmax_loss(targets, anchors, member.T, temp, pr, br,
                                  with_grads=False).value
        worst = max(worst, abs(l2q - bf_pool_loss(targets, anchors, pos_t,
                                                  temp, pr, br)))
        de = retrieval_loss(anchors, targets, member, cfg,
                            with_grads=False).value
        worst = max(worst, abs(de - bf_symmetric_loss(
            anchors, targets, pos, pos_t, temp, wd, pr, br)[0]))
        clf = classifier_loss(anchors, targets, member, cfg,
                              with_grads=False).value
        worst = max(worst, abs(clf - bf_symmetric_loss(
            anchors, targets, pos, pos_t, temp, 1.0 - wd, pr, br)[0]))
    _verdict("criterion 02 loss oracles", bool(worst < 1e-10),
             f"100 random instances, worst |diff| {worst:.3e} (budget 1e-10)")


def test_criterion_03_closed_form_reference_values():
    a = np.array([[1.0, 0.0]])
    two = np.array([[1.0, 0.0]] * 2)
    three = np.array([[1.0, 0.0]] * 3)
    v2 = pooled_softmax_loss(a, two, np.array([[True, False]]), 0.05,
                             with_grads=False).value
    pos3 = np.array([[True, False, True]])
    mean3 = pooled_softmax_loss(a, three, pos3, 0.37, "mean",
                                with_grads=False).value
    sum3 = pooled_softmax_loss(a, three, pos3, 0.37, "sum",
                               with_grads=False).value
    closed = max(abs(v2 - math.log(2.0)), abs(mean3 - math.log(3.0)),
                 abs(sum3 - 2.0 * math.log(3.0)))

    # on arbitrary scores, flipping only the positive-reduction flag scales
    # each per-anchor term by its positive count
    rng = np.random.default_rng(3)
    anchors = rng.normal(size=(6, 4))
    targets = rng.normal(size=(9, 4))
    pos = random_positive_sets(rng, 6, 9, max_pos=4)
    mask = mask_of(pos, 9)
    res_mean = pooled_softmax_loss(anchors, targets, mask, 0.1, "mean",
                                   "mean", with_grads=False)
    res_sum = pooled_softmax_loss(anchors, targets, mask, 0.1, "sum", "mean",
                                  with_grads=False)
    counts = np.array([len(p) for p in pos], dtype=np.float64)
    scale = float(np.max(np.abs(res_sum.per_anchor
                                - counts * res_mean.per_anchor)))
    _verdict("criterion 03 closed-form values",
             bool(closed < 1e-12 and scale < 1e-12),
             f"ln2/ln3 cases off by {closed:.3e}, sum-vs-mean off by "
             f"{scale:.3e} (budget 1e-12)")


def test_criterion_04_collation_matches_definitions():
    rng = np.random.default_rng(4)
    ok, note = True, "500 random datasets matched the set definitions"
    for trial in range(500):
        n = int(rng.integers(2, 9))
        num_labels = int(rng.integers(4, 15))
        ds = id_dataset(rng, n, num_labels, max_pos=3)
        pos_cap = int(rng.integers(1, 4))
        neg_cap = int(rng.integers(0, 3))
        cache = None
        if neg_cap:
            cache = mine_hard_negatives(unit_rows(rng, n, 6),
                                        unit_rows(rng, num_labels, 6),
                                        ds.positive_sets(), 4)
        ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                 replace=False))
        batch = collate_batch(ids, ds, cache, pos_cap, neg_cap,
                              int(rng.integers(1000)))
        pool, pb, pl = bf_collate(ids, ds.positive_sets(),
                                  batch.sampled_positives,
                                  batch.sampled_hard_negatives)
        if not np.array_equal(batch.label_pool, np.asarray(pool)):
            ok, note = False, f"trial {trial}: pool mismatch"
            break
        mask = batch.positives
        # the label-anchored view is the transpose of the one mask
        if mask.dtype != bool or mask.shape != (ids.size, len(pool)):
            ok, note = False, f"trial {trial}: mask shape {mask.shape}"
            break
        if not all(np.array_equal(batch.label_pool[mask[j]],
                                  np.asarray(pb[qid]))
                   for j, qid in enumerate(ids)):
            ok, note = False, f"trial {trial}: per-query positives mismatch"
            break
        if not all(np.array_equal(ids[mask[:, c]], np.asarray(pl[lab]))
                   for c, lab in enumerate(pool)):
            ok, note = False, f"trial {trial}: per-label positives mismatch"
            break
    _verdict("criterion 04 collation", ok, note)


def test_criterion_05_single_batch_reproduces_pooled_loss():
    rng = np.random.default_rng(5)
    ds = id_dataset(rng, 20, 15, max_pos=4)
    q_vecs = unit_rows(rng, 20, 8)
    l_vecs = unit_rows(rng, 15, 8)
    cover_all = max(len(p) for p in ds.positive_sets())
    batch = collate_batch(np.arange(20), ds, None, cover_all, 0, 123)

    union = np.unique(np.concatenate(ds.positive_sets()))
    mapped = [np.searchsorted(union, p) for p in ds.positive_sets()]
    want = bf_pool_loss(q_vecs, l_vecs[union], mapped, 0.1, "mean", "mean")
    got = pooled_softmax_loss(q_vecs, l_vecs[batch.label_pool],
                              batch.positives, 0.1, "mean", "mean",
                              with_grads=False).value
    diff = abs(got - want)
    _verdict("criterion 05 full-batch equivalence",
             bool(np.array_equal(batch.label_pool, union) and diff < 1e-10),
             f"pool == union of positives, |batch loss - pooled loss| "
             f"{diff:.3e} (budget 1e-10)")


def test_criterion_06_exact_retrieval_matches_brute_force():
    rng = np.random.default_rng(6)
    # integer-valued vectors make every score exactly representable, so
    # ranking comparisons are bitwise and ties are genuine
    q_vecs = rng.integers(-3, 4, size=(60, 12)).astype(np.float64)
    l_vecs = rng.integers(-3, 4, size=(90, 12)).astype(np.float64)
    scores = q_vecs @ l_vecs.T
    sets = random_positive_sets(rng, 60, 90, max_pos=5)

    cache = mine_hard_negatives(q_vecs, l_vecs, sets, 7)
    mining_ok = all(
        np.array_equal(cache.negatives[i],
                       bf_hard_negatives(scores[i], sets[i], 7))
        for i in range(60))

    index = LabelIndex("de", l_vecs)
    preds = predict_vectors(index, q_vecs, 10)
    tied_rows = 0
    search_ok = True
    for i, (ids, vals) in enumerate(preds):
        want_ids = np.asarray(bf_top_k(scores[i], 10), dtype=np.int64)
        if not (np.array_equal(ids, want_ids)
                and np.array_equal(vals, scores[i][want_ids])):
            search_ok = False
            break
        if np.unique(vals).size < vals.size:
            tied_rows += 1

    ds = text_dataset(15, 10, seed=6, hash_dim=1024)
    params = init_params(1024, 12, 6, 10, seed=3)
    per_mode = {}
    for mode in MODES:
        lv = label_vectors(params, ds, mode)
        qv = query_vectors(params, ds.instance_texts, ds.vocab, mode)
        per_mode[mode] = qv @ lv.T
    concat_gap = float(np.max(np.abs(per_mode["concat"]
                                     - per_mode["de"] - per_mode["clf"])))
    _verdict("criterion 06 retrieval oracles",
             bool(mining_ok and search_ok and tied_rows > 0
                  and concat_gap < 1e-10),
             f"mining+search match brute force ({tied_rows} rows with ties), "
             f"concat-score gap {concat_gap:.3e} (budget 1e-10)")


@pytest.fixture(scope="module")
def overfit_benchmark():
    """Shared 512x128 training runs with and without mined negatives."""
    ds = synth_dataset(512, 128, seed=0)
    results = {}
    for neg_cap in (2, 0):
        cfg = TrainConfig(epochs=50, batch_size=64, refresh_interval=5,
                          positives_per_query=2, hard_negatives_per_query=neg_cap,
                          encoder_dim=64, search_dim=32, seed=0)
        started = time.perf_counter()
        params, _ = train(ds, cfg)
        elapsed = time.perf_counter() - started
        scored = evaluate_model(params, ds, k_list=(1,))
        results[neg_cap] = ({m: scored[m]["P@1"] for m in MODES}, elapsed)
    return results


def test_criterion_07_overfit_benchmark(overfit_benchmark):
    p1, elapsed = overfit_benchmark[2]
    ok = (all(p1[m] >= 0.9 for m in MODES)
          and p1["concat"] >= max(p1["de"], p1["clf"]) - 0.02
          and elapsed < 300.0)
    _verdict("criterion 07 overfit benchmark", bool(ok),
             f"train P@1 de={p1['de']:.4f} clf={p1['clf']:.4f} "
             f"concat={p1['concat']:.4f} (floor 0.9, concat within 0.02 of "
             f"best) in {elapsed:.1f}s (budget 300s)")


def test_criterion_08_mined_negatives_do_not_hurt(overfit_benchmark):
    mined, _ = overfit_benchmark[2]
    plain, _ = overfit_benchmark[0]
    drops = {m: plain[m] - mined[m] for m in MODES}
    _verdict("criterion 08 negative-mining ablation",
             bool(all(d <= 0.02 for d in drops.values())),
             "P@1 change from adding mined negatives: "
             + ", ".join(f"{m} {mined[m] - plain[m]:+.4f}" for m in MODES)
             + " (allowed drop 0.02)")


def test_criterion_09_metrics_match_enumeration():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        num_labels = int(rng.integers(6, 21))
        k = int(rng.integers(1, 6))
        preds = [rng.permutation(num_labels)[:int(rng.integers(1, num_labels))]
                 for _ in range(n)]
        truth = random_positive_sets(rng, n, num_labels, max_pos=4,
                                     allow_empty=True)
        props = rng.uniform(0.2, 0.9, size=num_labels)
        worst = max(worst, abs(precision_at_k(preds, truth, k)
                               - bf_precision_at_k(preds, truth, k)))
        worst = max(worst, abs(psp_at_k(preds, truth, props, k)
                               - bf_psp_at_k(preds, truth, props, k)))

    # with uniform propensities and >= k positives everywhere, the
    # propensity-scored metric collapses to plain precision
    n, num_labels, k = 40, 12, 3
    truth = [np.sort(rng.choice(num_labels, size=int(rng.integers(3, 6)),
                                replace=False)) for _ in range(n)]
    preds = [rng.permutation(num_labels)[:6] for _ in range(n)]
    uniform = np.full(num_labels, 0.6)
    collapse = abs(psp_at_k(preds, truth, uniform, k)
                   - precision_at_k(preds, truth, k))
    _verdict("criterion 09 metric oracles",
             bool(worst < 1e-12 and collapse < 1e-12),
             f"worst |diff| {worst:.3e}, uniform-propensity collapse "
             f"{collapse:.3e} (budget 1e-12)")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    queries, labels = write_text_dataset(tmp_path, 96, 16, seed=10)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = ["train", "--queries-path", queries, "--labels-path", labels,
                "--hash-dim", "2048", "--encoder-dim", "32",
                "--search-dim", "16", "--epochs", "6", "--batch-size", "32",
                "--refresh-interval", "2", "--eval-every", "3",
                "--seed", "11", "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        outs.append(out)
    same = {}
    for fname in ("checkpoint.bin", "checkpoint.bin.json",
                  "train_log.jsonl"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        same[fname] = a == b
    _verdict("criterion 10 reproducibility", bool(all(same.values())),
             "two identical runs: " + ", ".join(
                 f"{k} {'identical' if v else 'DIFFERS'}"
                 for k, v in same.items()))
