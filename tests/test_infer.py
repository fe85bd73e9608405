"""Label indexing, three scoring modes, blocked exact top-k, TSV IO."""

import itertools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmclite import (ConfigError, DegenerateEmbeddingError, LabelIndex,
                     build_index, featurize_all, forward, init_params,
                     label_vectors, predict, predict_vectors, query_vectors,
                     read_predictions, synth_dataset, write_predictions)
from xmclite import infer
from xmclite.infer import topk

from conftest import random_positive_sets, traced_peak
from oracles import (argpartition_topk, bf_hard_negatives, bf_top_k,
                     loop_predictions_tsv)


@pytest.fixture(scope="module")
def setup():
    ds = synth_dataset(18, 10, seed=2)
    params = init_params(ds.vocab.hash_dim, 12, 6, 10, seed=4)
    return ds, params


def test_label_vector_norms_per_mode(setup):
    ds, params = setup
    de = label_vectors(params, ds, "de")
    clf = label_vectors(params, ds, "clf")
    cat = label_vectors(params, ds, "concat")
    assert np.allclose(np.linalg.norm(de, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(clf, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(cat, axis=1), np.sqrt(2.0), atol=1e-12)
    assert np.array_equal(cat, np.hstack([de, clf]))
    with pytest.raises(ConfigError):
        label_vectors(params, ds, "cosine")


def test_zero_classifier_row_is_rejected(setup):
    ds, params = setup
    broken = params.copy()
    broken.classifiers[3] = 0.0
    with pytest.raises(DegenerateEmbeddingError) as err:
        label_vectors(broken, ds, "clf")
    assert "3" in str(err.value)
    with pytest.raises(DegenerateEmbeddingError):
        build_index(broken, ds, "concat")
    label_vectors(broken, ds, "de")  # retrieval side is unaffected


def test_overflowing_norms_are_rejected_naming_the_rows(setup):
    # finite values whose squares overflow: dividing by an inf norm would
    # give all-zero unit vectors, and clf scores would rank by label id
    ds, params = setup
    broken = params.copy()
    broken.classifiers[[1, 4]] *= 1e200
    with pytest.raises(DegenerateEmbeddingError, match=r"labels \[1, 4\]"):
        infer.label_vectors_by_mode(broken, ds, ("clf",))
    broken = params.copy()
    broken.clf_w *= 1e200
    texts = ds.instance_texts[:3]
    with pytest.raises(DegenerateEmbeddingError,
                       match=r"queries \[0, 1, 2\]"):
        infer.query_vectors_by_mode(broken, texts, ds.vocab, ("clf",))
    # the retrieval side does not read the broken parameters
    infer.query_vectors_by_mode(broken, texts, ds.vocab, ("de",))


def test_query_vectors_norms_and_consistency(setup):
    ds, params = setup
    texts = ds.instance_texts[:6]
    de = query_vectors(params, texts, ds.vocab, "de")
    clf = query_vectors(params, texts, ds.vocab, "clf")
    cat = query_vectors(params, texts, ds.vocab, "concat")
    assert np.allclose(np.linalg.norm(de, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(clf, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(cat, np.hstack([de, clf]))


def test_concat_score_is_sum_of_mode_scores(setup):
    ds, params = setup
    texts = ds.instance_texts
    scores = {}
    for mode in ("de", "clf", "concat"):
        index = build_index(params, ds, mode)
        q = query_vectors(params, texts, ds.vocab, mode)
        scores[mode] = q @ index.vectors.T
    assert np.allclose(scores["concat"], scores["de"] + scores["clf"],
                       atol=1e-10)


def _top_k(scores, k):
    """``topk`` of one score row, as a 1-d query against 1-d labels."""
    ids, vals = topk(np.ones((1, 1)), np.asarray(scores)[:, None], k)
    return ids[0], vals[0]


def test_top_k_orders_and_breaks_ties_toward_lower_ids():
    ids, scores = _top_k(np.array([0.5, 0.9, 0.9, 0.1]), 2)
    assert ids.tolist() == [1, 2]
    assert scores.tolist() == [0.9, 0.9]
    ids, _ = _top_k(np.array([0.3, 0.3, 0.3]), 3)
    assert ids.tolist() == [0, 1, 2]
    ids, _ = _top_k(np.array([0.1, 0.2]), 99)
    assert ids.tolist() == [1, 0]


@pytest.mark.parametrize("block_bytes", [infer.SCORE_BLOCK_BYTES, 8 * 40 * 7])
def test_topk_matches_brute_force_with_ties_and_exclusions(monkeypatch,
                                                          block_bytes):
    # The small block size splits the 50 queries into 8 blocks.
    monkeypatch.setattr(infer, "SCORE_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    # integer coordinates: scores are exact and ties are plentiful
    q = rng.integers(-2, 3, size=(50, 4)).astype(np.float64)
    l = rng.integers(-2, 3, size=(40, 4)).astype(np.float64)
    scores = q @ l.T
    # rows 0-2 exclude all but 3 labels, fewer than most k below
    sets = random_positive_sets(rng, 50, 40, max_pos=6)
    sets[:3] = [np.delete(np.arange(40), [5, 17, 30])] * 3
    exclude = sp.csr_matrix(
        (np.ones(sum(len(s) for s in sets), dtype=bool),
         np.concatenate(sets), np.cumsum([0] + [len(s) for s in sets])),
        shape=(50, 40))
    # k at a tie boundary: a k-th score that other labels share
    row = np.sort(scores[7])[::-1]
    tie_k = int(np.flatnonzero(row[1:] == row[:-1])[0]) + 1
    for k in (1, tie_k, 7, 40, 41):
        ids, vals = topk(q, l, k)
        assert ids.shape == vals.shape == (50, min(k, 40))
        for i in range(50):
            assert ids[i].tolist() == bf_top_k(scores[i], k)
            assert np.array_equal(vals[i], scores[i][ids[i]])
        ids, vals = topk(q, l, k, exclude)
        for i in range(50):
            kept = ids[i][np.isfinite(vals[i])]
            assert kept.tolist() == bf_hard_negatives(scores[i], sets[i], k)
        assert all(np.isfinite(vals[i]).sum() == min(k, 3) for i in range(3))


TOPK_CASES = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _draw_vectors(data, n, num_labels):
    """Query and label vectors whose products are exact, so any block or
    tile shape gives the same score bits: small integers in up to 4 dims,
    or a few arbitrary floats in 1 dim.  Both give many ties."""
    if data.draw(st.booleans(), label="integer vectors"):
        dim = data.draw(st.integers(1, 4), label="dim")
        values = st.integers(-2, 2).map(float)
    else:
        dim = 1
        values = st.sampled_from(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4),
            label="float pool"))
    rows = [[data.draw(values) for _ in range(dim)] for _ in range(n)]
    cols = [[data.draw(values) for _ in range(dim)] for _ in range(num_labels)]
    return (np.array(rows, dtype=np.float64).reshape(n, dim),
            np.array(cols, dtype=np.float64).reshape(num_labels, dim))


def _draw_exclusions(data, n, num_labels):
    """None, or a CSR mask whose rows are random, leave one label or leave
    none."""
    if not data.draw(st.booleans(), label="exclude"):
        return None
    mask = np.zeros((n, num_labels), dtype=bool)
    for i in range(n):
        kind = data.draw(st.sampled_from(["random", "one left", "none left"]))
        if kind == "random":
            mask[i] = data.draw(st.lists(st.booleans(), min_size=num_labels,
                                         max_size=num_labels))
        else:
            mask[i] = True
            if kind == "one left":
                mask[i, data.draw(st.integers(0, num_labels - 1))] = False
    return sp.csr_matrix(mask, shape=(n, num_labels))


@TOPK_CASES
@given(data=st.data())
def test_topk_equals_the_argpartition_oracle_bitwise(monkeypatch, data):
    n = data.draw(st.integers(0, 12), label="n")
    num_labels = data.draw(st.integers(1, 24), label="L")
    q, l = _draw_vectors(data, n, num_labels)
    exclude = _draw_exclusions(data, n, num_labels)
    # A small budget splits the rows into blocks and the labels into tiles
    # of as little as one label, so ties straddle tile borders.
    block_bytes = data.draw(st.sampled_from(
        [infer.SCORE_BLOCK_BYTES, 8, 24, 8 * num_labels, 8 * 3 * num_labels]),
        label="block bytes")
    monkeypatch.setattr(infer, "SCORE_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(infer, "MIN_BLOCK_ROWS",
                        data.draw(st.sampled_from([64, 1, 2, 3]),
                                  label="min block rows"))
    workers = data.draw(st.sampled_from([1, 2, 3, 5]), label="workers")
    monkeypatch.setattr(infer, "scan_threads", lambda: workers)
    tie_k = 1
    if n:
        row = np.sort(q[0] @ l.T)[::-1]
        tied = np.flatnonzero(row[1:] == row[:-1])
        tie_k = int(tied[0]) + 1 if tied.size else 1
    k = data.draw(st.sampled_from(
        [1, tie_k, num_labels - 1, num_labels, num_labels + 1]), label="k")
    ids, scores = topk(q, l, k, exclude)
    want_ids, want_scores = argpartition_topk(q, l, k, exclude, block_bytes)
    assert ids.dtype == want_ids.dtype and scores.dtype == want_scores.dtype
    assert np.array_equal(ids, want_ids)
    assert scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n, num_labels, k, excluded", [
    (300, 4096, 32, True),      # the workloads' mining shape: 2 row blocks
    (130, 50000, 5, False),     # few queries: 3 blocks, 9 label tiles
], ids=["blocks", "tiles"])
def test_topk_of_float_vectors_equals_the_oracle_bitwise(
        monkeypatch, workers, n, num_labels, k, excluded):
    # Random floats round differently in a GEMM of another shape, which
    # integer vectors cannot show.  A short switch interval makes the
    # threads interleave between the steps of the scan.
    monkeypatch.setattr(infer, "scan_threads", lambda: workers)
    rng = np.random.default_rng(n)
    q = rng.standard_normal((n, 32))
    l = rng.standard_normal((num_labels, 32))
    exclude = None
    if excluded:
        exclude = sp.csr_matrix(rng.random((n, num_labels)) < 0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ids, scores = topk(q, l, k, exclude)
    finally:
        sys.setswitchinterval(interval)
    want_ids, want_scores = argpartition_topk(q, l, k, exclude)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(scores.view(np.int64), want_scores.view(np.int64))


@pytest.mark.parametrize("env, threaded", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"MKL_NUM_THREADS": " 1 ", "OMP_NUM_THREADS": "4"}, True),
], ids=["unset", "two", "one", "own-var-first", "omp", "mkl"])
def test_scans_use_threads_only_with_one_blas_thread(monkeypatch, env,
                                                     threaded):
    # Concurrent multithreaded GEMMs contend for the same cores.
    for var in infer.BLAS_THREAD_VARS + ("OMP_NUM_THREADS",):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(infer.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert infer.scan_threads() == (3 if threaded else 1)


@pytest.mark.parametrize("workers", [1, 3])
def test_an_exception_in_a_unit_leaves_topk_and_no_thread(monkeypatch,
                                                          workers):
    monkeypatch.setattr(infer, "scan_threads", lambda: workers)
    # 50 blocks of 64 queries against one tile each.  The fifth unit fails;
    # with 3 threads only the helpers' units count, so the error has to
    # cross from a helper thread to the caller.
    monkeypatch.setattr(infer, "SCORE_BLOCK_BYTES", 8 * 64 * 100)
    calls = itertools.count()
    select = infer._select

    def failing(s, k, mask):
        helper = threading.current_thread() is not threading.main_thread()
        if (helper or workers == 1) and next(calls) == 4:
            raise RuntimeError("unit failed")
        return select(s, k, mask)

    monkeypatch.setattr(infer, "_select", failing)
    rng = np.random.default_rng(0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="unit failed"):
        topk(rng.standard_normal((50 * 64, 4)), rng.standard_normal((100, 4)),
             3)
    assert threading.active_count() == before


@pytest.mark.parametrize("exclude", [
    sp.csr_matrix(np.ones((2, 3), dtype=bool)),     # too few rows
    sp.csr_matrix(np.ones((4, 3), dtype=bool)),     # too many rows
    sp.csr_matrix(np.ones((3, 4), dtype=bool)),     # too many labels
    sp.csc_matrix(np.ones((3, 3), dtype=bool)),
    np.ones((3, 3), dtype=bool),
], ids=["short", "tall", "wide", "csc", "dense"])
def test_topk_rejects_an_exclude_mask_of_another_shape_or_format(exclude):
    with pytest.raises(ValueError, match=r"CSR matrix of shape \(3, 3\), "
                       rf"got \w+ of shape \({exclude.shape[0]}, "):
        topk(np.eye(3), np.eye(3), 2, exclude)


def test_topk_ranks_rows_of_ties_and_of_minus_inf_by_id():
    # Every label of such a row is a candidate: ranked alone, by a stable
    # sort, it keeps the lowest ids.
    q = np.array([[1.0], [1.0], [0.0]])
    l = np.full((100, 1), 2.0)
    mask = np.zeros((3, 100), dtype=bool)
    mask[1] = np.arange(100) != 70
    ids, scores = topk(q, l, 6, sp.csr_matrix(mask))
    assert ids.tolist() == [list(range(6)), [70, 0, 1, 2, 3, 4],
                            list(range(6))]
    assert scores.tolist() == [[2.0] * 6, [2.0] + [-np.inf] * 5, [0.0] * 6]


def test_topk_rejects_non_finite_vectors_naming_the_first_bad_row():
    # unchecked, a NaN row's selection threshold is NaN and it ranks [0, 0]
    q = np.array([[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(DegenerateEmbeddingError, match="query vector in row 1"):
        topk(q, np.eye(2), 2)
    l = np.array([[1.0, 0.0], [np.inf, 1.0], [-np.inf, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="label vector in row 1"):
        topk(np.eye(2), l, 1)


def test_exact_prediction_matches_brute_force_scan():
    rng = np.random.default_rng(1)
    # small integer coordinates: scores are exact and ties are plentiful
    vectors = rng.integers(-3, 4, size=(30, 5)).astype(np.float64)
    index = LabelIndex("de", vectors)
    queries = rng.integers(-3, 4, size=(8, 5)).astype(np.float64)
    results = predict_vectors(index, queries, 6)
    for q, (ids, scores) in zip(queries, results):
        row = q @ vectors.T
        assert ids.tolist() == bf_top_k(row, 6)
        assert np.array_equal(scores, row[ids])
        assert np.all(np.diff(scores) <= 0)


def test_predict_vectors_validates_inputs(setup):
    ds, params = setup
    index = build_index(params, ds, "de")
    with pytest.raises(ConfigError):
        predict_vectors(index, np.zeros((2, index.vectors.shape[1])), 0)
    with pytest.raises(ConfigError):
        predict_vectors(index, np.zeros((2, index.vectors.shape[1] + 1)), 3)


def test_degenerate_query_embeddings_are_rejected(setup):
    ds, params = setup
    empty = [np.zeros(0, dtype=np.int64)]
    with pytest.raises(DegenerateEmbeddingError):
        query_vectors(params, empty, ds.vocab, "de")
    with pytest.raises(DegenerateEmbeddingError) as err:
        query_vectors(params, empty, ds.vocab, "clf")
    assert "quer" in str(err.value)


def test_predictions_tsv_roundtrip(tmp_path):
    results = [(np.array([4, 1]), np.array([0.75, -0.125])),
               (np.array([0]), np.array([1 / 3]))]
    path = str(tmp_path / "p.tsv")
    write_predictions(path, results)
    back = read_predictions(path)
    # each row's position is its query id
    assert set(back) == {0, 1}
    assert back[0] == [(4, 0.75), (1, -0.125)]
    # repr-written floats survive the roundtrip bit-exactly
    assert back[1][0][1] == 1 / 3
    # a write that fails partway leaves the previous file in place
    before = (tmp_path / "p.tsv").read_bytes()
    with pytest.raises(ValueError):
        write_predictions(path, [(np.array([2]), np.array([0.5])),
                                 (np.array([3]), ["not a score"])])
    assert (tmp_path / "p.tsv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.tsv"]


def test_predictions_tsv_equals_per_scalar_text(tmp_path):
    results = [(np.array([4, 1, 9]), np.array([1e-05, -0.0, 1e16])),
               (np.array([], dtype=np.int64), np.array([])),
               (np.array([0], dtype=np.int32),
                np.array([1 / 3], dtype=np.float32)),
               (np.array([2, 5]), np.array([-1e-300, 0.1]))]
    path = tmp_path / "p.tsv"
    write_predictions(str(path), results)
    want = loop_predictions_tsv(results).encode("utf-8")
    assert path.read_bytes() == want
    assert b"\t1e-05\n" in want and b"\t-0.0\n" in want
    assert b"\t1e+16\n" in want


def test_read_predictions_restores_rank_order(tmp_path):
    # gaps in the ranks are allowed
    path = tmp_path / "p.tsv"
    path.write_text("0\t4\t7\t0.5\n0\t1\t3\t0.9\n\n1\t1\t2\t0.1\n",
                    encoding="utf-8")
    back = read_predictions(str(path))
    assert back[0] == [(3, 0.9), (7, 0.5)]
    assert back[1] == [(2, 0.1)]


def test_read_predictions_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\t3\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read_predictions(str(path))
    assert ":1:" in str(err.value)
    path.write_text("0\t1\tthree\t0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_predictions(str(path))


@pytest.mark.parametrize("text, where, message", [
    ("0\t1\t3\t0.5\n0\t0\t4\t0.2\n", 2, "rank 0 is below 1"),
    ("1\t-4\t5\t0.2\n", 1, "rank -4 is below 1"),
    ("0\t1\t3\t0.5\n1\t1\t2\t0.1\n0\t1\t3\t0.5\n", 3,
     "query 0 has rank 1 twice"),
], ids=["zero", "negative", "repeated"])
def test_read_predictions_rejects_bad_ranks(tmp_path, text, where, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"bad.tsv:{where}: {message}"):
        read_predictions(str(path))


def test_predict_end_to_end_shapes(setup):
    ds, params = setup
    index = build_index(params, ds, "concat")
    results = predict(index, params, ds.instance_texts, ds.vocab, 3)
    assert len(results) == ds.num_instances
    for ids, scores in results:
        assert ids.shape == (3,) and scores.shape == (3,)
        assert np.all(np.diff(scores) <= 0)
        assert ids.min() >= 0 and ids.max() < ds.num_labels


def _unit_oracle(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _one_pass_vectors(params, ds):
    """Label and query vectors of every mode from one forward over all rows
    of each side, with concat as the two halves side by side."""
    labels = forward(params, featurize_all(ds.label_texts, ds.vocab),
                     heads=("de",))
    queries = forward(params, featurize_all(ds.instance_texts, ds.vocab))
    sides = {"labels": (labels.de_out, _unit_oracle(params.classifiers)),
             "queries": (queries.de_out, _unit_oracle(queries.clf_out))}
    return {side: {"de": de, "clf": clf, "concat": np.hstack([de, clf])}
            for side, (de, clf) in sides.items()}


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_blocked_vectors_equal_the_one_pass_forward_bitwise(monkeypatch,
                                                            block_rows):
    # 129 labels and 150 queries: blocks of 64 leave a one-row label tail
    ds = synth_dataset(150, 129, seed=6)
    params = init_params(ds.vocab.hash_dim, 16, 8, ds.num_labels, seed=1)
    params.clf_b[:] = 0.1
    want = _one_pass_vectors(params, ds)
    monkeypatch.setattr(infer, "BLOCK_ROWS", block_rows)
    got = {"labels": {mode: infer.label_vectors_by_mode(params, ds, (mode,))
                      [mode] for mode in infer.MODES},
           "queries": {mode: infer.query_vectors_by_mode(
               params, ds.instance_texts, ds.vocab, (mode,))[mode]
               for mode in infer.MODES}}
    both = {"labels": infer.label_vectors_by_mode(params, ds),
            "queries": infer.query_vectors_by_mode(params, ds.instance_texts,
                                                   ds.vocab)}
    for side in got:
        for mode in infer.MODES:
            bits = want[side][mode].view(np.int64)
            assert np.array_equal(got[side][mode].view(np.int64), bits)
            assert np.array_equal(both[side][mode].view(np.int64), bits)
        # de and clf are the halves of concat's array
        cat = both[side]["concat"]
        assert np.shares_memory(both[side]["de"], cat)
        assert np.shares_memory(both[side]["clf"], cat)
    # a strided half ranks as its contiguous copy does
    for mode in infer.MODES:
        q, l = both["queries"][mode], both["labels"][mode]
        got_ids, got_scores = topk(q, l, 5)
        ids, scores = topk(np.ascontiguousarray(q), np.ascontiguousarray(l), 5)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_scores.view(np.int64), scores.view(np.int64))


def test_a_degenerate_row_in_a_later_block_is_named_by_its_pass_index(
        monkeypatch):
    # blocks of 7 rows: row 17 lies in the third block
    monkeypatch.setattr(infer, "BLOCK_ROWS", 7)
    ds = synth_dataset(30, 25, seed=2)
    params = init_params(ds.vocab.hash_dim, 12, 6, ds.num_labels, seed=4)
    texts = list(ds.instance_texts)
    texts[17] = np.zeros(0, dtype=np.int64)
    with pytest.raises(DegenerateEmbeddingError,
                       match=r"normalization at rows \[17\]"):
        infer.query_vectors_by_mode(params, texts, ds.vocab, ("de",))
    with pytest.raises(DegenerateEmbeddingError,
                       match=r"embeddings for queries \[17\]"):
        infer.query_vectors_by_mode(params, texts, ds.vocab, ("clf",))
    broken = params.copy()
    broken.classifiers[17] = 0.0
    with pytest.raises(DegenerateEmbeddingError,
                       match=r"classifier rows for labels \[17\]"):
        infer.label_vectors_by_mode(broken, ds, ("concat",))


def _feature_rows(rng, n, hash_dim, tokens=4):
    """n feature rows of ``tokens`` random columns, each weighted 1/tokens."""
    cols = rng.integers(0, hash_dim, size=(n, tokens))
    return sp.csr_matrix((np.full(n * tokens, 1.0 / tokens), cols.ravel(),
                          np.arange(0, n * tokens + 1, tokens)),
                         shape=(n, hash_dim))


@pytest.mark.parametrize("rows", [1 << 12, 1 << 14])
def test_blocked_vectors_hold_their_output_and_one_block(monkeypatch, rows):
    # the featurized rows are made beforehand, so the traced peak holds the
    # output array and the temporaries of a block of 64 rows (about 200
    # KiB), whatever the row count; one (rows, encoder_dim) encoding of all
    # rows is 2 or 8 MiB
    monkeypatch.setattr(infer, "BLOCK_ROWS", 64)
    feats = _feature_rows(np.random.default_rng(0), rows, 1024)
    monkeypatch.setattr(infer, "featurize_all", lambda texts, vocab: feats)
    params = init_params(1024, 64, 32, rows, seed=0)
    catalog = SimpleNamespace(label_texts=None, vocab=None)
    for embed in (lambda: infer.label_vectors_by_mode(params, catalog),
                  lambda: infer.query_vectors_by_mode(params, None, None)):
        vecs, peak = traced_peak(embed)
        assert vecs["concat"].shape == (rows, 64)
        assert peak < vecs["concat"].nbytes + (512 << 10)


def _one_string_writer(results) -> bytes:
    """The predictions text as one list of every line joined into one
    string, as ``write_predictions`` built it before it wrote in chunks."""
    lines = []
    for qid, (labels, scores) in enumerate(results):
        pairs = zip(np.asarray(labels).tolist(),
                    np.asarray(scores, dtype=np.float64).tolist())
        lines += [f"{qid}\t{rank}\t{lab}\t{sc!r}\n"
                  for rank, (lab, sc) in enumerate(pairs, start=1)]
    return "".join(lines).encode("utf-8")


def test_chunked_predictions_equal_the_one_string_writer(tmp_path,
                                                         monkeypatch):
    # chunks of 2 queries over 7, the last chunk short; special and
    # integer-valued scores
    monkeypatch.setattr(infer, "WRITE_CHUNK_QUERIES", 2)
    rng = np.random.default_rng(3)
    results = [(rng.permutation(9)[:4], rng.normal(size=4)) for _ in range(7)]
    results[1] = (np.array([3, 0, 8]), np.array([-0.0, 5e-324, 1e300]))
    results[4] = (np.array([7, 2]), np.array([3.0, -12.0]))
    results[5] = (np.array([], dtype=np.int64), np.array([]))
    path = tmp_path / "p.tsv"
    write_predictions(str(path), results)
    want = _one_string_writer(results)
    assert path.read_bytes() == want
    assert b"\t-0.0\n" in want and b"\t5e-324\n" in want
    assert b"\t1e+300\n" in want and b"\t3.0\n" in want
    back = read_predictions(str(path))
    assert back[1] == [(3, -0.0), (0, 5e-324), (8, 1e300)]
    assert 5 not in back


def test_read_predictions_places_out_of_order_ranks(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("0\t5\t1\t0.1\n0\t2\t4\t0.4\n1\t1\t9\t0.9\n0\t3\t6\t0.3\n"
                    "0\t1\t2\t0.5\n", encoding="utf-8")
    assert read_predictions(str(path)) == {
        0: [(2, 0.5), (4, 0.4), (6, 0.3), (1, 0.1)], 1: [(9, 0.9)]}
    # a repeat between two earlier ranks is still a repeat
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0\t3\t7\t0.2\n")
    with pytest.raises(ConfigError, match="p.tsv:6: query 0 has rank 3 twice"):
        read_predictions(str(path))
