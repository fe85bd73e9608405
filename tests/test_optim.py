"""Grouped-learning-rate Adam: frozen step values, clipping, abort paths."""

import numpy as np
import pytest

from oracles import BfDenseAdam, dense_grads
from xmclite import Adam, TrainingAbort, init_params, optim, zero_grads
from xmclite.model import ROW_TABLES

# scalar trajectory under constant gradient 1.0 at lr=0.1 (frozen from an
# independent stdlib computation)
STEP_1 = -0.09999999900000002
STEP_2 = -0.09999999899999931


def _zeroed_params(num_labels=2):
    p = init_params(4, 2, 1, num_labels, seed=0)
    for arr in p.arrays().values():
        arr[:] = 0.0
    return p


def test_first_two_steps_match_frozen_values():
    p = _zeroed_params()
    opt = Adam(lr_classifiers=0.1)
    g = zero_grads(p)
    g.classifiers = (np.array([0]), np.array([[1.0]]))
    opt.step(p, g)
    assert p.classifiers[0, 0] == pytest.approx(STEP_1, abs=1e-16)
    g2 = zero_grads(p)
    g2.classifiers = (np.array([0]), np.array([[1.0]]))
    opt.step(p, g2)
    assert p.classifiers[0, 0] == pytest.approx(STEP_1 + STEP_2, abs=1e-15)
    assert opt.step_count == 2


def test_zero_gradient_entries_never_move():
    p = _zeroed_params()
    opt = Adam(lr_classifiers=0.1)
    for _ in range(3):
        g = zero_grads(p)
        g.classifiers = (np.array([0]), np.array([[1.0]]))
        opt.step(p, g)
    # the sibling row and all other groups saw only zero gradients
    assert p.classifiers[1, 0] == 0.0
    assert np.all(p.embed == 0.0) and np.all(p.de_w == 0.0)
    assert np.all(p.de_b == 0.0) and np.all(p.clf_w == 0.0)


def test_touched_entries_drift_on_later_zero_gradient_steps():
    # dense Adam: a decaying first moment keeps moving a previously
    # touched entry even when its new gradient is zero
    p = _zeroed_params()
    opt = Adam(lr_classifiers=0.1)
    g = zero_grads(p)
    g.classifiers = (np.array([0]), np.array([[1.0]]))
    opt.step(p, g)
    before = p.classifiers[0, 0]
    opt.step(p, zero_grads(p))
    assert p.classifiers[0, 0] != before


def test_learning_rates_are_per_group():
    p = _zeroed_params()
    opt = Adam(lr_encoder=1e-4, lr_heads=2e-4, lr_classifiers=1e-3)
    g = zero_grads(p)
    for arr in g.arrays().values():
        arr[:] = 1.0
    g.embed = (np.arange(4), np.ones((4, 2)))
    g.classifiers = (np.arange(2), np.ones((2, 1)))
    opt.step(p, g)
    unit = STEP_1 / 0.1  # shared update direction for a unit gradient
    assert np.allclose(p.embed, 1e-4 * unit, rtol=1e-12)
    assert np.allclose(p.de_w, 2e-4 * unit, rtol=1e-12)
    assert np.allclose(p.de_b, 2e-4 * unit, rtol=1e-12)
    assert np.allclose(p.clf_w, 2e-4 * unit, rtol=1e-12)
    assert np.allclose(p.clf_b, 2e-4 * unit, rtol=1e-12)
    assert np.allclose(p.classifiers, 1e-3 * unit, rtol=1e-12)


def test_gradient_clipping_matches_manual_prescaling():
    def run(clip, scale):
        p = _zeroed_params()
        opt = Adam()
        g = zero_grads(p)
        g.embed = (np.arange(4), np.full((4, 2), 3.0))
        g.classifiers = (np.arange(2), np.full((2, 1), -2.0))
        if scale is not None:
            g.scale_(scale)
        opt.step(p, g, grad_clip=clip)
        return p

    g_norm = np.sqrt(8 * 3.0 ** 2 + 2 * 2.0 ** 2)
    clipped = run(clip=1.0, scale=None)
    manual = run(clip=0.0, scale=1.0 / g_norm)
    for name in clipped.arrays():
        assert np.array_equal(clipped.arrays()[name], manual.arrays()[name])
    # norm below the threshold: clipping is a no-op
    loose = run(clip=1e9, scale=None)
    plain = run(clip=0.0, scale=None)
    for name in loose.arrays():
        assert np.array_equal(loose.arrays()[name], plain.arrays()[name])


def test_non_finite_gradients_abort_before_updating():
    p = _zeroed_params()
    opt = Adam()
    g = zero_grads(p)
    g.de_w[0, 0] = np.nan
    with pytest.raises(TrainingAbort) as err:
        opt.step(p, g)
    assert "de_w" in str(err.value)
    assert np.all(p.de_w == 0.0)  # nothing was applied
    assert opt.step_count == 0

    g = zero_grads(p)
    g.embed = (np.array([0]), np.array([[np.inf, 0.0]]))
    with pytest.raises(TrainingAbort):
        opt.step(p, g)


@pytest.mark.parametrize("name", ["embed", "classifiers"])
def test_update_that_overflows_a_row_aborts(name):
    p = _zeroed_params()
    table = p.arrays()[name]
    table[0] = -1e308
    opt = Adam(lr_encoder=1e308, lr_classifiers=1e308)
    g = zero_grads(p)
    setattr(g, name, (np.array([0]), np.ones((1, table.shape[1]))))
    with np.errstate(over="ignore"), pytest.raises(
            TrainingAbort, match=f"non-finite values in {name} after step 1"):
        opt.step(p, g)


def test_moments_are_kept_per_parameter():
    p = _zeroed_params()
    opt = Adam(lr_classifiers=0.1, lr_heads=0.1)
    g = zero_grads(p)
    g.classifiers = (np.array([0]), np.array([[1.0]]))
    opt.step(p, g)
    # a fresh parameter touched on step 2 still gets full bias correction
    g2 = zero_grads(p)
    g2.de_w[0, 0] = 1.0
    opt.step(p, g2)
    assert opt.m["de_w"][0, 0] == pytest.approx(0.1)
    assert p.de_w[0, 0] == pytest.approx(
        -0.1 * (0.1 / (1 - 0.9 ** 2)) /
        (np.sqrt(0.001 / (1 - 0.999 ** 2)) + 1e-8), rel=1e-12)


@pytest.mark.parametrize("row_block", [256, 3])
def test_row_sparse_adam_matches_dense_reference(row_block, monkeypatch):
    monkeypatch.setattr(optim, "_ROW_BLOCK", row_block)
    p = init_params(8, 3, 2, 6, seed=1)
    ref = p.copy()
    opt = Adam(lr_encoder=0.01, lr_heads=0.02, lr_classifiers=0.05)
    lrs = {"embed": 0.01, "de_w": 0.02, "de_b": 0.02, "clf_w": 0.02,
           "clf_b": 0.02, "classifiers": 0.05}
    oracle = BfDenseAdam(lrs)
    rng = np.random.default_rng(4)
    # In both lookup tables, rows 1 and 2 are touched, skipped, then touched
    # again; row 5 (embed) and row 4 (classifiers) are touched once and then
    # only decay; classifier rows 0, 3 and 5 are never touched.
    rows = {"embed": [[1, 2], [5], [], [1, 6], [0, 2, 3, 4, 7], [2]],
            "classifiers": [[1, 2], [4], [], [1, 2], [2], [1]]}
    for step, touched in enumerate(zip(*rows.values()), start=1):
        g = zero_grads(p)
        for name, arr in g.arrays().items():
            if name not in ROW_TABLES:
                arr[:] = rng.normal(size=arr.shape)
        for name, ids in zip(rows, touched):
            width = p.arrays()[name].shape[1]
            setattr(g, name, (np.array(ids, dtype=np.int64),
                              rng.normal(size=(len(ids), width))))
        oracle.step(ref.arrays(), dense_grads(g, p))
        opt.step(p, g)
        for name, arr in p.arrays().items():
            assert np.array_equal(arr, ref.arrays()[name]), (step, name)
            # a lookup table keeps row active[s]'s moments in row s
            rows_of = (opt.active[name] if name in ROW_TABLES
                       else slice(None))
            k = len(oracle.m[name][rows_of])
            for got, want in ((opt.m, oracle.m), (opt.v, oracle.v)):
                assert np.array_equal(got[name][:k], want[name][rows_of]), (
                    step, name)
                assert not got[name][k:].any(), (step, name)
    assert sorted(opt.active["embed"].tolist()) == list(range(8))
    assert sorted(opt.active["classifiers"].tolist()) == [1, 2, 4]

    # a non-finite row of either lookup table aborts before anything moves
    before = p.copy()
    moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in opt.m}
    slots = {k: (opt.slots[k].copy(), opt.active[k].copy()) for k in ROW_TABLES}
    for name in ROW_TABLES:
        g = zero_grads(p)
        g.de_w[:] = 1.0
        bad = np.full((2, p.arrays()[name].shape[1]), 0.5)
        bad[1, 1] = np.nan
        setattr(g, name, (np.array([3, 5]), bad))
        with pytest.raises(TrainingAbort, match=name):
            opt.step(p, g)
        assert opt.step_count == len(rows["embed"])
        for key, arr in p.arrays().items():
            assert np.array_equal(arr, before.arrays()[key]), (name, key)
            assert np.array_equal(opt.m[key], moments[key][0]), (name, key)
            assert np.array_equal(opt.v[key], moments[key][1]), (name, key)
        for key in ROW_TABLES:
            assert np.array_equal(opt.slots[key], slots[key][0]), (name, key)
            assert np.array_equal(opt.active[key], slots[key][1]), (name, key)


def test_slots_follow_first_gradient_and_are_never_relaid():
    p = init_params(8, 3, 2, 6, seed=1)
    opt = Adam(lr_encoder=0.01, lr_classifiers=0.05)
    rows = {"embed": [[2, 5], [5], [0, 1, 5, 7], [], [1, 3]],
            "classifiers": [[4], [0, 4], [], [1, 3, 5], [2]]}
    first = {"embed": [2, 5, 0, 1, 7, 3], "classifiers": [4, 0, 1, 3, 5, 2]}
    rng = np.random.default_rng(7)
    seen = {name: [] for name in ROW_TABLES}
    stores = None
    for touched in zip(*rows.values()):
        g = zero_grads(p)
        for name, ids in zip(rows, touched):
            width = p.arrays()[name].shape[1]
            setattr(g, name, (np.array(ids, dtype=np.int64),
                              rng.normal(size=(len(ids), width))))
            seen[name] += [i for i in ids if i not in seen[name]]
        opt.step(p, g)
        for name in ROW_TABLES:
            active, slots = opt.active[name], opt.slots[name]
            assert active.tolist() == seen[name]
            assert slots[active].tolist() == list(range(active.size))
            assert np.all(np.delete(slots, active) == -1)
        # the moment arrays are updated in place, never replaced or re-laid
        now = [opt.m[name] for name in ROW_TABLES] + [
            opt.v[name] for name in ROW_TABLES]
        assert stores is None or all(a is b for a, b in zip(now, stores))
        stores = now
    assert {k: v.tolist() for k, v in opt.active.items()} == first

    # an aborted step assigns no slot, not even to its finite new rows
    slots = {k: opt.slots[k].copy() for k in ROW_TABLES}
    g = zero_grads(p)
    g.embed = (np.array([4, 6]), np.ones((2, 3)))
    g.classifiers = (np.array([0, 2]), np.array([[1.0, 1.0], [np.inf, 0.0]]))
    with pytest.raises(TrainingAbort, match="classifiers"):
        opt.step(p, g)
    assert {k: v.tolist() for k, v in opt.active.items()} == first
    for name in ROW_TABLES:
        assert np.array_equal(opt.slots[name], slots[name]), name
