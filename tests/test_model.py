"""Encoder, heads, dropout, exact backward pass, and checkpoint IO."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from xmclite import (ConfigError, DegenerateEmbeddingError, ModelParams,
                     Vocabulary, backward, featurize_all, forward, init_params,
                     load_checkpoint, save_checkpoint, zero_grads)
from xmclite.model import _dropout_mask, merge_rows

from conftest import unit_rows
from oracles import (assert_finite, dense_grads, finite_difference,
                     max_relative_error)

# normalize(tanh([3, 4])): frozen from an independent stdlib computation
TANH_3 = 0.9950547536867305
TANH_4 = 0.999329299739067
UNIT_34 = [0.7055896247214916, 0.7086206894279794]


def _identity_head_params(num_labels=3):
    """2-d encoder, 2-d search space, both heads the identity map."""
    params = init_params(4, 2, 2, num_labels, seed=0, dropout=0.0)
    params.de_w = np.eye(2)
    params.clf_w = np.eye(2)
    return params


def _heads(params, enc):
    """``forward`` on given encodings: row i holds one token whose embedding
    row is ``enc[i]``.  Returns (de_out, clf_out), 1-d for a 1-d ``enc``."""
    enc2 = np.atleast_2d(enc)
    params.embed = enc2.astype(np.float64)
    trace = forward(params, sp.identity(len(enc2), format="csr"))
    if np.ndim(enc) == 1:
        return trace.de_out[0], trace.clf_out[0]
    return trace.de_out, trace.clf_out


def _random_feats(rng, n, hash_dim, min_tokens=1, max_tokens=5):
    rows = np.zeros((n, hash_dim))
    for i in range(n):
        k = int(rng.integers(min_tokens, max_tokens, endpoint=True))
        cols = rng.integers(0, hash_dim, size=k)
        for c in cols:
            rows[i, c] += 1.0
    return sp.csr_matrix(rows)


def test_init_shapes_bounds_and_determinism():
    p = init_params(16, 8, 4, 10, seed=1)
    assert p.embed.shape == (16, 8)
    assert p.de_w.shape == (8, 4) and p.clf_w.shape == (8, 4)
    assert p.de_b.tolist() == [0.0] * 4 and p.clf_b.tolist() == [0.0] * 4
    assert p.classifiers.shape == (10, 4)
    assert np.abs(p.embed).max() <= 1 / np.sqrt(8)
    assert np.abs(p.classifiers).max() <= 1 / np.sqrt(4)
    q = init_params(16, 8, 4, 10, seed=1)
    assert all(np.array_equal(p.arrays()[k], q.arrays()[k])
               for k in p.arrays())
    r = init_params(16, 8, 4, 10, seed=2)
    assert not np.array_equal(p.embed, r.embed)


def test_init_rejects_bad_dimensions_and_dropout():
    with pytest.raises(ConfigError):
        init_params(0, 4, 2, 3)
    with pytest.raises(ConfigError):
        init_params(8, 4, 2, 3, dropout=1.5)


def test_encode_single_token_selects_embedding_row():
    p = init_params(8, 4, 2, 3, seed=0)
    feats = sp.csr_matrix(np.eye(8)[2:3])
    assert np.allclose(forward(p, feats, heads=()).enc, p.embed[2], atol=1e-15)


def test_encode_is_count_weighted_mean():
    p = init_params(8, 4, 2, 3, seed=0)
    feats = featurize_all([np.array([1, 5, 1])], Vocabulary(8))
    got = forward(p, feats, heads=()).enc
    want = (2 * p.embed[1] + p.embed[5]) / 3
    assert np.allclose(got, want, atol=1e-15)


def test_encode_zero_row_is_zero():
    p = init_params(8, 4, 2, 3, seed=0)
    assert np.all(forward(p, sp.csr_matrix((1, 8)), heads=()).enc == 0.0)


def test_forward_on_sliced_rows_equals_forward_on_those_texts():
    # Rows are normalized once for the whole matrix; a slice of it must
    # encode bitwise as featurizing just the sliced texts would.
    rng = np.random.default_rng(8)
    vocab = Vocabulary(64)
    texts = [rng.integers(0, 64, size=int(rng.integers(2, 12)))
             for _ in range(20)]
    texts[3] = np.array([7, 7, 7, 2, 7, 40, 2])
    p = init_params(64, 6, 4, 3, seed=1)
    ids = np.array([3, 17, 0, 3, 9, 12])
    got = forward(p, featurize_all(texts, vocab)[ids])
    want = forward(p, featurize_all([texts[i] for i in ids], vocab))
    for name in ("enc", "de_out", "clf_out"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_retrieval_head_frozen_example():
    params = _identity_head_params()
    out = _heads(params, np.array([3.0, 4.0]))[0]
    assert np.allclose(out, UNIT_34, atol=1e-12)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # pre-normalization activations are the raw tanh values
    assert abs(np.tanh(3.0) - TANH_3) < 1e-15
    assert abs(np.tanh(4.0) - TANH_4) < 1e-15


def test_classifier_head_is_affine_and_unnormalized():
    params = _identity_head_params()
    out = _heads(params, np.array([3.0, 4.0]))[1]
    assert np.allclose(out, [3.0, 4.0], atol=1e-15)
    assert abs(np.linalg.norm(out) - 5.0) < 1e-12
    params.clf_b = np.array([1.0, -1.0])
    assert np.allclose(_heads(params, np.array([3.0, 4.0]))[1], [4.0, 3.0])


def test_heads_accept_batched_input():
    params = _identity_head_params()
    enc = np.array([[3.0, 4.0], [1.0, 0.0]])
    de, clf = _heads(params, enc)
    assert de.shape == (2, 2)
    assert np.allclose(np.linalg.norm(de, axis=1), 1.0, atol=1e-12)
    assert np.allclose(clf, enc, atol=1e-15)


def test_forward_eval_equals_train_without_dropout():
    rng = np.random.default_rng(3)
    p = init_params(12, 5, 3, 4, seed=0, dropout=0.0)
    feats = _random_feats(rng, 4, 12)
    a = forward(p, feats, mode="eval")
    b = forward(p, feats, mode="train", rng=np.random.default_rng(0))
    assert np.array_equal(a.de_out, b.de_out)
    assert np.array_equal(a.clf_out, b.clf_out)
    assert b.de_mask is None and b.clf_mask is None


def test_forward_train_records_replayable_masks():
    rng = np.random.default_rng(4)
    p = init_params(12, 5, 3, 4, seed=0, dropout=0.4)
    feats = _random_feats(rng, 6, 12)
    t1 = forward(p, feats, mode="train", rng=np.random.default_rng(9))
    assert t1.de_mask is not None and t1.clf_mask is not None
    # a generator seeded alike replays the pass, masks included
    t2 = forward(p, feats, mode="train", rng=np.random.default_rng(9))
    assert np.array_equal(t1.de_mask, t2.de_mask)
    assert np.array_equal(t1.clf_mask, t2.clf_mask)
    assert np.array_equal(t1.de_out, t2.de_out)
    assert np.array_equal(t1.clf_out, t2.clf_out)
    # and differs from eval for this dropout rate (some unit was dropped)
    ev = forward(p, feats, mode="eval")
    assert not np.array_equal(t1.clf_out, ev.clf_out)


def test_forward_train_requires_rng():
    p = init_params(12, 5, 3, 4, seed=0, dropout=0.5)
    feats = sp.csr_matrix(np.ones((1, 12)))
    with pytest.raises(ValueError, match="rng"):
        forward(p, feats, mode="train")


def test_forward_rejects_unknown_mode():
    p = init_params(12, 5, 3, 4, seed=0)
    with pytest.raises(ValueError):
        forward(p, sp.csr_matrix((1, 12)), mode="test")


def test_dropout_mask_statistics():
    rng = np.random.default_rng(7)
    mask = _dropout_mask((20000,), 0.25, rng)
    zero_frac = float((mask == 0.0).mean())
    assert abs(zero_frac - 0.25) < 0.02
    kept = mask[mask != 0.0]
    assert np.allclose(kept, 1.0 / 0.75, atol=1e-12)
    assert np.all(_dropout_mask((5,), 1.0, rng) == 0.0)


def test_empty_text_degenerates_retrieval_head():
    p = init_params(8, 4, 2, 3, seed=0)
    rows = np.zeros((2, 8))
    rows[1, 3] = 1.0  # row 0 stays empty
    with pytest.raises(DegenerateEmbeddingError) as err:
        forward(p, sp.csr_matrix(rows), heads=("de",))
    assert "0" in str(err.value)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    p = init_params(6, 3, 2, 4, seed=5, dropout=0.3)
    feats = _random_feats(rng, 4, 6)
    r_de = rng.normal(size=(4, 2))
    r_clf = rng.normal(size=(4, 2))

    def value():
        # re-seeded per call, so every probe sees the same dropout masks
        t = forward(p, feats, mode="train", rng=np.random.default_rng(21))
        return (float(np.sum(t.de_out * r_de))
                + float(np.sum(t.clf_out * r_clf)))

    trace = forward(p, feats, mode="train", rng=np.random.default_rng(21))
    grads = backward(p, trace, d_de=r_de, d_clf=r_clf)
    names = ["embed", "de_w", "de_b", "clf_w", "clf_b"]
    numeric = finite_difference(value, [p.arrays()[n] for n in names])
    analytic = [dense_grads(grads, p)[n] for n in names]
    assert max_relative_error(analytic, numeric) < 1e-6
    # the classifier table is not part of the trace
    assert grads.classifiers[0].size == 0


@pytest.mark.parametrize("a_ids,b_ids", [
    ([], []), ([], [0, 2, 5]), ([1, 4], []),       # empty blocks
    ([0, 2, 5], [1, 2, 6])])                       # overlapping
def test_merge_rows_equals_add_at_into_a_zeroed_table(a_ids, b_ids):
    rng = np.random.default_rng(len(a_ids) * 10 + len(b_ids))
    width = 3

    def block(ids):
        vals = rng.normal(size=(len(ids), width))
        vals[::2, 0] = -0.0          # -0.0 + 0.0 is +0.0 in both sums
        vals[1::3] = -0.0
        return np.array(ids, dtype=np.int64), vals

    a, b = block(a_ids), block(b_ids)
    row_ids, rows = merge_rows(a, b)
    dense = np.zeros((7, width))
    np.add.at(dense, a[0], a[1])
    np.add.at(dense, b[0], b[1])
    assert np.array_equal(row_ids, np.union1d(a_ids, b_ids))
    assert rows.shape == (row_ids.size, width)
    # bitwise, signed zeros included
    assert np.array_equal(rows.view(np.int64), dense[row_ids].view(np.int64))


def test_embedding_gradient_rows_equal_dense_product_bitwise():
    rng = np.random.default_rng(12)
    p = init_params(16, 5, 3, 4, seed=2)
    q_feats = _random_feats(rng, 8, 16)
    l_feats = _random_feats(rng, 4, 16)
    q_trace = forward(p, q_feats)
    l_trace = forward(p, l_feats, heads=("clf",))
    d_q, d_l = rng.normal(size=(8, 3)), rng.normal(size=(4, 3))
    g = backward(p, q_trace, d_clf=d_q)
    backward(p, l_trace, d_clf=d_l, out=g)

    dense = np.zeros_like(p.embed)
    dense += np.asarray(q_trace.feats.T @ (d_q @ p.clf_w.T))
    dense += np.asarray(l_trace.feats.T @ (d_l @ p.clf_w.T))
    row_ids, rows = g.embed
    want_ids = np.union1d(q_trace.feats.indices, l_trace.feats.indices)
    assert row_ids.dtype == np.int64
    assert np.array_equal(row_ids, want_ids)
    assert np.array_equal(rows, dense[row_ids])
    assert np.array_equal(dense_grads(g, p)["embed"], dense)


def test_backward_validates_inputs():
    p = init_params(4, 2, 2, 5, seed=0)
    trace = forward(p, sp.csr_matrix(np.ones((1, 4))), heads=("clf",))
    with pytest.raises(ValueError):
        backward(p, trace, d_de=np.zeros((1, 2)))  # no retrieval activations
    with pytest.raises(ValueError):
        backward(p, trace, d_clf=np.zeros((2, 2)))  # wrong shape


def test_grads_arithmetic_and_norm():
    p = init_params(4, 2, 2, 3, seed=0)
    a = zero_grads(p)
    a.de_b += 4.0
    a.scale_(0.5)
    assert np.all(a.de_b == 2.0)
    assert abs(a.global_norm() - np.sqrt(2 * 2.0 ** 2)) < 1e-12


def test_assert_finite_raises_on_nan():
    p = init_params(4, 2, 2, 3, seed=0)
    assert_finite(p)
    p.clf_w[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        assert_finite(p)


def test_checkpoint_roundtrip_and_stability(tmp_path):
    p = init_params(16, 8, 4, 6, seed=3, dropout=0.2)
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, p, extra={"epoch": 7})
    back, sidecar = load_checkpoint(path)
    for name, arr in p.arrays().items():
        assert np.array_equal(back.arrays()[name], arr)
    assert back.dropout == 0.2
    assert sidecar["epoch"] == 7
    assert sidecar["dims"]["num_labels"] == 6
    blob1 = (tmp_path / "model.bin").read_bytes()
    save_checkpoint(path, p, extra={"epoch": 7})
    assert (tmp_path / "model.bin").read_bytes() == blob1


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path):
    p = init_params(8, 4, 2, 3, seed=0)
    path = str(tmp_path / "m.bin")
    save_checkpoint(path, p, extra={"epoch": 1})
    bad = p.copy()
    # the header and the first matrices are written before this one fails
    bad.classifiers = np.full(p.classifiers.shape, "x", dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, bad, extra={"epoch": 2})
    back, sidecar = load_checkpoint(path)
    for name, arr in p.arrays().items():
        assert np.array_equal(back.arrays()[name], arr)
    assert sidecar["epoch"] == 1
    assert sorted(os.listdir(tmp_path)) == ["m.bin", "m.bin.json"]


def test_checkpoint_missing_sidecar_is_tolerated(tmp_path):
    p = init_params(8, 4, 2, 3, seed=0)
    path = str(tmp_path / "m.bin")
    save_checkpoint(path, p)
    (tmp_path / "m.bin.json").unlink()
    back, sidecar = load_checkpoint(path)
    assert sidecar == {}
    assert np.array_equal(back.embed, p.embed)


def test_checkpoint_rejects_bad_magic_and_truncation(tmp_path):
    p = init_params(8, 4, 2, 3, seed=0)
    path = tmp_path / "m.bin"
    save_checkpoint(str(path), p)
    blob = path.read_bytes()
    (tmp_path / "bad.bin").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(ConfigError):
        load_checkpoint(str(tmp_path / "bad.bin"))
    for size in (len(blob) - 16, 47, 20):
        (tmp_path / "short.bin").write_bytes(blob[:size])
        with pytest.raises(ConfigError):
            load_checkpoint(str(tmp_path / "short.bin"))
    # a header with a zero dimension, whatever the others say
    for dims in ([0, 0, 0, 0], [2**64 - 1, 0, 0, 1]):
        (tmp_path / "zero.bin").write_bytes(
            blob[:8] + np.array(dims, dtype="<u8").tobytes() + blob[40:48])
        with pytest.raises(ConfigError):
            load_checkpoint(str(tmp_path / "zero.bin"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, bad):
    p = init_params(8, 4, 2, 3, seed=0)
    p.classifiers[2, 1] = bad
    p.classifiers[1, 0] = bad       # the first bad index is reported
    path = str(tmp_path / "m.bin")
    save_checkpoint(path, p)
    with pytest.raises(ConfigError, match=r"classifiers value at index \(1, 0\)"):
        load_checkpoint(path)


def test_params_copy_is_deep():
    p = init_params(8, 4, 2, 3, seed=0)
    q = p.copy()
    q.embed[0, 0] += 1.0
    assert p.embed[0, 0] != q.embed[0, 0]
