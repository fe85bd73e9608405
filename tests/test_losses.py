"""The symmetric pool softmax loss, its wrappers and the loss mix."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmclite import (ConfigError, TrainConfig, classifier_loss, loss_parts,
                     retrieval_loss, symmetric_pool_loss)

from conftest import mask_of, random_positive_sets, sets_of, unit_rows
from oracles import (bf_pool_loss, bf_symmetric_loss, finite_difference,
                     loop_symmetric_pool_loss, max_relative_error)

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098
LN_1P_EXP_M2 = 0.1269280110429726  # ln(1 + e^-2)


def q2l(anchors, targets, positives, temperature, *args, **kwargs):
    """The query-anchored direction alone: the symmetric loss at weight 1."""
    return symmetric_pool_loss(anchors, targets, positives, temperature, 1.0,
                               *args, **kwargs)


def test_single_positive_pool_is_zero_loss():
    res = q2l(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
              np.array([[True]]), temperature=0.05)
    assert abs(res.value) < 1e-15
    assert np.allclose(res.d_queries, 0.0, atol=1e-15)
    assert np.allclose(res.d_targets, 0.0, atol=1e-15)


def test_two_equal_scores_one_positive_is_ln2():
    anchors = np.array([[0.3, 0.4]])
    targets = np.array([[0.7, -0.2], [0.7, -0.2]])
    for temp in (0.05, 1.0, 10.0):
        res = q2l(anchors, targets, np.array([[True, False]]), temp)
        assert res.q2l_value == pytest.approx(LN2, abs=1e-12)


def test_three_equal_scores_two_positives_is_ln3():
    anchors = np.array([[1.0, -1.0]])
    targets = np.tile(np.array([[0.2, 0.9]]), (3, 1))
    pos = np.array([[True, True, False]])
    res = q2l(anchors, targets, pos, 0.05)
    assert res.q2l_value == pytest.approx(LN3, abs=1e-12)


def test_uniform_scores_give_log_pool_size():
    anchors = np.array([[0.5, 0.5]])
    for m in (2, 5, 9):
        targets = np.tile(np.array([[1.0, 2.0]]), (m, 1))
        res = q2l(anchors, targets, mask_of([[0]], m), 0.05)
        assert res.q2l_value == pytest.approx(np.log(m), abs=1e-12)


def test_two_point_logit_gap_value():
    # logits (2, 0) for the single anchor; positive at the high side
    anchors = np.array([[1.0, 0.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = q2l(anchors, targets, np.array([[True, False]]), temperature=0.5)
    assert res.q2l_value == pytest.approx(LN_1P_EXP_M2, abs=1e-12)


def test_adding_a_constant_per_anchor_logit_row_changes_nothing():
    rng = np.random.default_rng(1)
    anchors, targets = unit_rows(rng, 4, 3), unit_rows(rng, 7, 3)
    pos = mask_of(random_positive_sets(rng, 4, 7), 7)
    temp = 0.2
    base = q2l(anchors, targets, pos, temp).q2l_value
    # appending a shared coordinate adds c_i to every logit of anchor i
    shifts = np.array([3.0, -2.0, 0.5, 0.0])
    anchors2 = np.hstack([anchors, (shifts * temp)[:, None]])
    targets2 = np.hstack([targets, np.ones((7, 1))])
    shifted = q2l(anchors2, targets2, pos, temp).q2l_value
    assert shifted == pytest.approx(base, abs=1e-10)


def test_temperature_is_a_score_rescaling():
    rng = np.random.default_rng(2)
    anchors, targets = unit_rows(rng, 5, 4), unit_rows(rng, 6, 4)
    pos = mask_of(random_positive_sets(rng, 5, 6), 6)
    a = q2l(anchors, targets, pos, 0.05).q2l_value
    b = q2l(anchors / 0.05, targets, pos, 1.0).q2l_value
    assert a == pytest.approx(b, rel=1e-12)


def test_empty_inputs_and_empty_positive_sets_are_zero():
    res = q2l(np.zeros((0, 3)), np.zeros((4, 3)),
              np.zeros((0, 4), dtype=bool), 0.05)
    assert res.value == 0.0 and res.d_targets.shape == (4, 3)
    res = q2l(np.zeros((2, 3)), np.zeros((0, 3)),
              np.zeros((2, 0), dtype=bool), 0.05)
    assert res.value == 0.0 and res.d_queries.shape == (2, 3)
    rng = np.random.default_rng(3)
    res = symmetric_pool_loss(unit_rows(rng, 3, 2), unit_rows(rng, 4, 2),
                              np.zeros((3, 4), dtype=bool), 0.05, 0.5)
    assert res.value == res.q2l_value == res.l2q_value == 0.0
    assert np.all(res.d_queries == 0.0) and np.all(res.d_targets == 0.0)


def test_anchors_without_positives_are_left_out_of_the_mean():
    rng = np.random.default_rng(4)
    anchors, targets = unit_rows(rng, 3, 3), unit_rows(rng, 5, 3)
    pos = mask_of([[0, 2], [], [1]], 5)
    res = q2l(anchors, targets, pos, 0.1)
    only_active = q2l(anchors[[0, 2]], targets, pos[[0, 2]], 0.1)
    assert res.q2l_value == pytest.approx(only_active.q2l_value, rel=1e-12)
    assert np.all(res.d_queries[1] == 0.0)


def test_pool_loss_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(1, 8, endpoint=True))
        m = int(rng.integers(1, 12, endpoint=True))
        d = int(rng.integers(2, 6))
        anchors = rng.normal(size=(n, d))
        targets = rng.normal(size=(m, d))
        pos = random_positive_sets(rng, n, m, max_pos=4, allow_empty=True)
        temp = float(rng.uniform(0.05, 2.0))
        for b_red in ("mean", "sum"):
            got = symmetric_pool_loss(anchors, targets, mask_of(pos, m),
                                      temp, 0.5, b_red)
            want = bf_pool_loss(anchors, targets, pos, temp, b_red)
            assert got.q2l_value == pytest.approx(want, abs=1e-10)
            want = bf_pool_loss(targets, anchors, sets_of(mask_of(pos, m).T),
                                temp, b_red)
            assert got.l2q_value == pytest.approx(want, abs=1e-10)


@st.composite
def _pool_loss_cases(draw):
    """Anchors, targets and positive masks that between them hold empty
    anchor or target sets and anchors with no positives."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * m,
                                  max_size=n * m)), dtype=bool).reshape(n, m)
    temp = draw(st.sampled_from([0.05, 0.3, 1.0]))
    return rng.normal(size=(n, d)), rng.normal(size=(m, d)), mask, temp


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_pool_loss_cases())
@example((np.array([[1.0, 0.0], [0.5, 0.5]]), np.eye(2)[[0, 1, 1]],
          mask_of([[2, 0], []], 3), 0.3))
def test_pool_loss_equals_the_per_anchor_loop_bitwise(case):
    anchors, targets, mask, temp = case
    for b_red in ("mean", "sum"):
        for w in (0.0, 0.3, 1.0):
            got = symmetric_pool_loss(anchors, targets, mask, temp, w, b_red)
            want = loop_symmetric_pool_loss(anchors, targets, sets_of(mask),
                                            sets_of(mask.T), temp, w, b_red)
            assert (got.value, got.q2l_value, got.l2q_value) == want[:3]
            assert np.array_equal(got.d_queries, want[3])
            assert np.array_equal(got.d_targets, want[4])


def test_pool_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for b_red in ("mean", "sum"):
        anchors = rng.normal(size=(4, 3))
        targets = rng.normal(size=(6, 3))
        pos = mask_of([[0, 2], [5], [], [1, 3, 4]], 6)

        def value():
            return q2l(anchors, targets, pos, 0.3, b_red,
                       with_grads=False).value

        res = q2l(anchors, targets, pos, 0.3, b_red)
        numeric = finite_difference(value, [anchors, targets])
        assert max_relative_error([res.d_queries, res.d_targets],
                                  numeric) < 1e-6


def test_direction_wrappers_share_the_core():
    rng = np.random.default_rng(7)
    queries, labels = unit_rows(rng, 4, 3), unit_rows(rng, 5, 3)
    pos = mask_of(random_positive_sets(rng, 4, 5), 5)
    # both directions read one score matrix: swapping the roles of queries
    # and labels swaps the directions.  The swap computes labels @ queries.T,
    # the transpose of the product the other call computes, which BLAS may
    # round differently in the last bits; and 1 - 0.7 is not 0.3 in floats.
    for b_red in ("mean", "sum"):
        both = symmetric_pool_loss(queries, labels, pos, 0.1, 0.3, b_red)
        swap = symmetric_pool_loss(labels, queries, pos.T, 0.1, 0.7, b_red)
        assert both.value == pytest.approx(swap.value, abs=1e-12)
        assert both.q2l_value == pytest.approx(swap.l2q_value, abs=1e-12)
        assert both.l2q_value == pytest.approx(swap.q2l_value, abs=1e-12)
        assert np.allclose(both.d_queries, swap.d_targets, rtol=0, atol=1e-12)
        assert np.allclose(both.d_targets, swap.d_queries, rtol=0, atol=1e-12)


def test_symmetric_loss_mixes_directions_and_matches_brute_force():
    rng = np.random.default_rng(8)
    queries, labels = unit_rows(rng, 5, 4), unit_rows(rng, 6, 4)
    pos = mask_of(random_positive_sets(rng, 5, 6, allow_empty=True), 6)
    for w in (0.0, 0.3, 1.0):
        res = symmetric_pool_loss(queries, labels, pos, 0.1, w)
        want, fwd, rev = bf_symmetric_loss(queries, labels, sets_of(pos),
                                           sets_of(pos.T), 0.1, w)
        assert res.value == pytest.approx(want, abs=1e-10)
        assert res.q2l_value == pytest.approx(fwd, abs=1e-10)
        assert res.l2q_value == pytest.approx(rev, abs=1e-10)


def test_symmetric_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    queries = rng.normal(size=(4, 3))
    labels = rng.normal(size=(5, 3))
    pos = mask_of([[0, 1], [2], [4], []], 5)

    def value():
        return symmetric_pool_loss(queries, labels, pos, 0.2, 0.7,
                                   with_grads=False).value

    res = symmetric_pool_loss(queries, labels, pos, 0.2, 0.7)
    # one gradient entry is 6.6e-5: at step 1e-6 the round-off of the
    # differences (about 1e-9 absolute) alone is 6.5e-6 of it
    numeric = finite_difference(value, [queries, labels], step=1e-5)
    assert max_relative_error([res.d_queries, res.d_targets], numeric) < 1e-6


def test_retrieval_and_classifier_wrappers_route_their_weights():
    rng = np.random.default_rng(10)
    queries, labels = unit_rows(rng, 4, 3), unit_rows(rng, 5, 3)
    pos = mask_of(random_positive_sets(rng, 4, 5), 5)
    cfg = TrainConfig(temperature=0.1, clf_q2l_weight=0.0)
    de = retrieval_loss(queries, labels, pos, cfg)
    clf = classifier_loss(queries, labels, pos, cfg)
    # the retrieval loss is always the even mix of its two directions
    assert de.value == 0.5 * de.q2l_value + 0.5 * de.l2q_value
    assert clf.value == pytest.approx(clf.l2q_value)


def test_loss_parts_are_convex_mixes():
    directions = {"de_q2l": 1.0, "de_l2q": 3.0, "clf_q2l": 2.0,
                  "clf_l2q": 10.0}
    for de_weight, total in ((0.5, 3.0), (1.0, 2.0), (0.0, 4.0)):
        cfg = TrainConfig(de_weight=de_weight, clf_q2l_weight=0.75)
        assert loss_parts(directions, cfg) == {
            **directions, "de": 2.0, "clf": 4.0, "total": total}


def test_loss_config_validation():
    TrainConfig().validate()
    bad = [dict(temperature=0.0), dict(temperature=-1.0),
           dict(de_weight=1.2), dict(clf_q2l_weight=-0.1),
           dict(clf_q2l_weight=2.0), dict(batch_reduction="none")]
    for kw in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()


def test_pool_loss_rejects_bad_arguments():
    a, t = np.zeros((1, 2)), np.zeros((2, 2))
    pos = np.array([[True, False]])
    with pytest.raises(ConfigError):
        symmetric_pool_loss(a, t, pos, 0.0, 0.5)
    with pytest.raises(ConfigError):
        symmetric_pool_loss(a, t, pos, 0.1, 0.5, batch_reduction="max")
    with pytest.raises(ValueError, match="mask"):
        symmetric_pool_loss(a, t, np.eye(2, dtype=bool), 0.1, 0.5)  # 2 rows
    with pytest.raises(ValueError, match="mask"):
        symmetric_pool_loss(a, t, pos.T, 0.1, 0.5)             # transposed
    with pytest.raises(ValueError, match="mask"):
        symmetric_pool_loss(a, t, np.array([[1, 0]]), 0.1, 0.5)  # not bool
    with pytest.raises(ValueError, match="mask"):               # would broadcast
        symmetric_pool_loss(np.zeros((3, 2)), t, pos, 0.1, 0.5)
