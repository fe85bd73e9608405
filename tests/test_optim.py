"""Grouped-learning-rate Adam: frozen step values, clipping, abort paths."""

import tracemalloc

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


def _bits(a):
    """``a``'s float64 or float32 entries as integers of their width:
    unlike ``==``, tells -0.0 from +0.0."""
    a = np.ascontiguousarray(a)
    return a.view(np.int64 if a.dtype == np.float64 else np.int32)


def _signed_zeros(rows, rng):
    """``rows`` with about a third of its entries set to -0.0 or +0.0 and,
    when it is a matrix of two rows or more, its second row all zero."""
    rows = rows.copy()
    pick = rng.random(rows.shape)
    rows[pick < 0.15] = -0.0
    rows[(pick >= 0.15) & (pick < 0.3)] = 0.0
    if rows.ndim == 2 and len(rows) > 1:
        rows[1] = np.where(rng.random(rows.shape[1]) < 0.5, -0.0, 0.0)
    return rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("row_block", [256, 3])
def test_row_sparse_adam_matches_dense_reference(row_block, dtype,
                                                 monkeypatch):
    # the skipped zero terms are exact in every binary format (module doc),
    # so float32 training steps bitwise as dense float32 Adam
    monkeypatch.setattr(optim, "_ROW_BLOCK", row_block)
    p = init_params(600, 3, 2, 6, seed=1, dtype=dtype)
    p.embed[::7, 0] = -0.0   # a zero update must keep a parameter's sign
    ref = p.copy()
    opt = Adam(lr_encoder=0.01, lr_heads=0.02, lr_classifiers=0.05)
    lrs = {"embed": 0.01, "de_w": 0.02, "de_b": 0.02, "clf_w": 0.02,
           "clf_b": 0.02, "classifiers": 0.05}
    oracle = BfDenseAdam(lrs)
    rng = np.random.default_rng(4)
    # In both lookup tables, rows 1 and 2 are touched, skipped, then touched
    # again; row 5 (embed) and row 4 (classifiers) are touched once and then
    # only decay; classifier rows 0, 3 and 5 are never touched.  Step 7
    # activates embed rows 8-599, so the active set crosses the block
    # boundaries of either block size, and step 8 touches rows on both
    # sides of them.  Every gradient holds -0.0 and +0.0 entries, and each
    # one of two rows or more has an all-zero row.
    rows = {"embed": [[1, 2], [5], [], [1, 6], [0, 2, 3, 4, 7], [2],
                      list(range(8, 600)), [1, 300, 599], []],
            "classifiers": [[1, 2], [4], [], [1, 2], [2], [1], [2, 4], [1],
                            []]}
    for step, touched in enumerate(zip(*rows.values()), start=1):
        g = zero_grads(p)
        for name, arr in g.arrays().items():
            if name not in ROW_TABLES:
                arr[:] = _signed_zeros(rng.normal(size=arr.shape), rng)
        for name, ids in zip(rows, touched):
            width = p.arrays()[name].shape[1]
            setattr(g, name, (np.array(ids, dtype=np.int64), _signed_zeros(
                rng.normal(size=(len(ids), width)).astype(dtype), rng)))
        oracle.step(ref.arrays(), dense_grads(g, p))
        opt.step(p, g)
        for name, arr in p.arrays().items():
            assert arr.dtype == opt.m[name].dtype == opt.v[name].dtype == dtype
            assert np.array_equal(_bits(arr), _bits(ref.arrays()[name])), (
                step, name)
            # a lookup table keeps row active[s]'s moments in row s
            rows_of = (opt.active[name] if name in ROW_TABLES
                       else slice(None))
            k = len(oracle.m[name][rows_of])
            for got, want in ((opt.m, oracle.m), (opt.v, oracle.v)):
                assert np.array_equal(_bits(got[name][:k]),
                                      _bits(want[name][rows_of])), (step, name)
                assert not got[name][k:].any(), (step, name)
                # the invariant that lets rows without a gradient skip
                # adding (1 - beta) * 0.0 (optim's module doc)
                assert not np.any(np.signbit(got[name]) & (got[name] == 0)), (
                    step, name)
    assert sorted(opt.active["embed"].tolist()) == list(range(600))
    assert sorted(opt.active["classifiers"].tolist()) == [1, 2, 4]

    # a non-finite row of either lookup table aborts before anything moves
    before = p.copy()
    moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in opt.m}
    slots = {k: (opt.slots[k].copy(), opt.active[k].copy()) for k in ROW_TABLES}
    for name in ROW_TABLES:
        g = zero_grads(p)
        g.de_w[:] = 1.0
        bad = np.full((2, p.arrays()[name].shape[1]), 0.5, dtype=dtype)
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
    for step, touched in enumerate(zip(*rows.values()), start=1):
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
        if step == 1:
            # a head gives every row on every step, in order; a bias is one
            # row, and every group's moments keep its parameter's shape
            for name, arr in p.arrays().items():
                if name not in ROW_TABLES:
                    height = 1 if arr.ndim == 1 else arr.shape[0]
                    assert opt.active[name].tolist() == list(range(height))
                assert opt.m[name].shape == opt.v[name].shape == arr.shape
            assert opt.active["de_b"].tolist() == [0]
            assert opt.active["clf_b"].tolist() == [0]
        # the moment arrays are updated in place, never replaced or re-laid
        now = [opt.m[name] for name in ROW_TABLES] + [
            opt.v[name] for name in ROW_TABLES]
        assert stores is None or all(a is b for a, b in zip(now, stores))
        stores = now
    assert {k: opt.active[k].tolist() for k in ROW_TABLES} == first

    # an aborted step assigns no slot, not even to its finite new rows
    slots = {k: opt.slots[k].copy() for k in ROW_TABLES}
    g = zero_grads(p)
    g.embed = (np.array([4, 6]), np.ones((2, 3)))
    g.classifiers = (np.array([0, 2]), np.array([[1.0, 1.0], [np.inf, 0.0]]))
    with pytest.raises(TrainingAbort, match="classifiers"):
        opt.step(p, g)
    assert {k: opt.active[k].tolist() for k in ROW_TABLES} == first
    for name in ROW_TABLES:
        assert np.array_equal(opt.slots[name], slots[name]), name


def test_row_step_allocates_blocks_not_the_active_set():
    # Peak traced allocation of one step: three float scratch blocks and a
    # bool one, plus at most one float array of the given rows and 16 KiB
    # of small ones.  A whole-set temporary would add 8 bytes per entry of
    # every active row (5 MB at 10,000 rows of 64).
    width, given = 64, 300
    block = optim._ROW_BLOCK * width
    bound = 3 * 8 * block + block + 8 * given * width + 16 * 1024
    rng = np.random.default_rng(0)
    peaks = []
    for active in (10_000, 20_000):
        p = init_params(active + 100, width, 2, 4, seed=0)
        opt = Adam()
        g = zero_grads(p)
        g.embed = (np.arange(active), rng.normal(size=(active, width)))
        opt.step(p, g)
        # 250 rows already active, spread over the blocks, and 50 new ones
        ids = np.sort(np.concatenate([
            rng.choice(active, given - 50, replace=False),
            active + rng.choice(100, 50, replace=False)]))
        g = zero_grads(p)
        g.embed = (ids, rng.normal(size=(given, width)))
        tracemalloc.start()
        try:
            opt.step(p, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert opt.active["embed"].size == active + 50
    assert max(peaks) <= bound, (peaks, bound)
    assert peaks[1] <= peaks[0] + 4096, peaks
