"""Pool softmax losses and their symmetric/combined wrappers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmclite import (ConfigError, LossConfig, classifier_loss, combined_loss,
                     pooled_softmax_loss, retrieval_loss, symmetric_pool_loss)

from conftest import mask_of, random_positive_sets, sets_of, unit_rows
from oracles import (bf_pool_loss, bf_symmetric_loss, finite_difference,
                     loop_pooled_softmax_loss, max_relative_error)

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098
LN_1P_EXP_M2 = 0.1269280110429726  # ln(1 + e^-2)


def test_single_positive_pool_is_zero_loss():
    res = pooled_softmax_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
                              np.array([[True]]), temperature=0.05)
    assert abs(res.value) < 1e-15
    assert np.allclose(res.d_anchors, 0.0, atol=1e-15)
    assert np.allclose(res.d_targets, 0.0, atol=1e-15)


def test_two_equal_scores_one_positive_is_ln2():
    anchors = np.array([[0.3, 0.4]])
    targets = np.array([[0.7, -0.2], [0.7, -0.2]])
    for temp in (0.05, 1.0, 10.0):
        res = pooled_softmax_loss(anchors, targets, np.array([[True, False]]),
                                  temp)
        assert res.value == pytest.approx(LN2, abs=1e-12)


def test_three_equal_scores_two_positives_ln3_and_sum_doubles():
    anchors = np.array([[1.0, -1.0]])
    targets = np.tile(np.array([[0.2, 0.9]]), (3, 1))
    pos = np.array([[True, True, False]])
    mean = pooled_softmax_loss(anchors, targets, pos, 0.05,
                               positive_reduction="mean")
    total = pooled_softmax_loss(anchors, targets, pos, 0.05,
                                positive_reduction="sum")
    assert mean.value == pytest.approx(LN3, abs=1e-12)
    assert total.value == pytest.approx(2 * LN3, abs=1e-12)


def test_uniform_scores_give_log_pool_size():
    anchors = np.array([[0.5, 0.5]])
    for m in (2, 5, 9):
        targets = np.tile(np.array([[1.0, 2.0]]), (m, 1))
        res = pooled_softmax_loss(anchors, targets, mask_of([[0]], m), 0.05)
        assert res.value == pytest.approx(np.log(m), abs=1e-12)


def test_two_point_logit_gap_value():
    # logits (2, 0) for the single anchor; positive at the high side
    anchors = np.array([[1.0, 0.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = pooled_softmax_loss(anchors, targets, np.array([[True, False]]),
                              temperature=0.5)
    assert res.value == pytest.approx(LN_1P_EXP_M2, abs=1e-12)


def test_per_anchor_sum_is_positive_count_times_mean():
    rng = np.random.default_rng(0)
    anchors, targets = unit_rows(rng, 6, 4), unit_rows(rng, 9, 4)
    pos = random_positive_sets(rng, 6, 9, max_pos=5)
    mask = mask_of(pos, 9)
    mean = pooled_softmax_loss(anchors, targets, mask, 0.1,
                               positive_reduction="mean")
    total = pooled_softmax_loss(anchors, targets, mask, 0.1,
                                positive_reduction="sum")
    for i, p in enumerate(pos):
        assert total.per_anchor[i] == pytest.approx(
            len(p) * mean.per_anchor[i], rel=1e-12)


def test_adding_a_constant_per_anchor_logit_row_changes_nothing():
    rng = np.random.default_rng(1)
    anchors, targets = unit_rows(rng, 4, 3), unit_rows(rng, 7, 3)
    pos = mask_of(random_positive_sets(rng, 4, 7), 7)
    temp = 0.2
    base = pooled_softmax_loss(anchors, targets, pos, temp).value
    # appending a shared coordinate adds c_i to every logit of anchor i
    shifts = np.array([3.0, -2.0, 0.5, 0.0])
    anchors2 = np.hstack([anchors, (shifts * temp)[:, None]])
    targets2 = np.hstack([targets, np.ones((7, 1))])
    shifted = pooled_softmax_loss(anchors2, targets2, pos, temp).value
    assert shifted == pytest.approx(base, abs=1e-10)


def test_temperature_is_a_score_rescaling():
    rng = np.random.default_rng(2)
    anchors, targets = unit_rows(rng, 5, 4), unit_rows(rng, 6, 4)
    pos = mask_of(random_positive_sets(rng, 5, 6), 6)
    a = pooled_softmax_loss(anchors, targets, pos, 0.05).value
    b = pooled_softmax_loss(anchors / 0.05, targets, pos, 1.0).value
    assert a == pytest.approx(b, rel=1e-12)


def test_empty_inputs_and_empty_positive_sets_are_zero():
    res = pooled_softmax_loss(np.zeros((0, 3)), np.zeros((4, 3)),
                              np.zeros((0, 4), dtype=bool), 0.05)
    assert res.value == 0.0 and res.d_targets.shape == (4, 3)
    res = pooled_softmax_loss(np.zeros((2, 3)), np.zeros((0, 3)),
                              np.zeros((2, 0), dtype=bool), 0.05)
    assert res.value == 0.0 and res.d_anchors.shape == (2, 3)
    rng = np.random.default_rng(3)
    res = pooled_softmax_loss(unit_rows(rng, 3, 2), unit_rows(rng, 4, 2),
                              np.zeros((3, 4), dtype=bool), 0.05)
    assert res.value == 0.0
    assert np.all(res.per_anchor == 0.0)
    assert np.all(res.d_anchors == 0.0) and np.all(res.d_targets == 0.0)


def test_anchors_without_positives_are_left_out_of_the_mean():
    rng = np.random.default_rng(4)
    anchors, targets = unit_rows(rng, 3, 3), unit_rows(rng, 5, 3)
    pos = mask_of([[0, 2], [], [1]], 5)
    res = pooled_softmax_loss(anchors, targets, pos, 0.1)
    only_active = pooled_softmax_loss(anchors[[0, 2]], targets, pos[[0, 2]],
                                      0.1)
    assert res.value == pytest.approx(only_active.value, rel=1e-12)
    assert res.per_anchor[1] == 0.0
    assert np.all(res.d_anchors[1] == 0.0)


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
        for p_red in ("mean", "sum"):
            for b_red in ("mean", "sum"):
                got = pooled_softmax_loss(anchors, targets, mask_of(pos, m),
                                          temp, p_red, b_red).value
                want = bf_pool_loss(anchors, targets, pos, temp, p_red, b_red)
                assert got == pytest.approx(want, abs=1e-10)


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
    for p_red in ("mean", "sum"):
        for b_red in ("mean", "sum"):
            got = pooled_softmax_loss(anchors, targets, mask, temp,
                                      p_red, b_red)
            value, per_anchor, d_anchors, d_targets = \
                loop_pooled_softmax_loss(anchors, targets, sets_of(mask),
                                         temp, p_red, b_red)
            assert got.value == value
            assert np.array_equal(got.per_anchor, per_anchor)
            assert np.array_equal(got.d_anchors, d_anchors)
            assert np.array_equal(got.d_targets, d_targets)


def test_pool_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for p_red, b_red in (("mean", "mean"), ("sum", "mean"),
                         ("mean", "sum"), ("sum", "sum")):
        anchors = rng.normal(size=(4, 3))
        targets = rng.normal(size=(6, 3))
        pos = mask_of([[0, 2], [5], [], [1, 3, 4]], 6)

        def value():
            return pooled_softmax_loss(anchors, targets, pos, 0.3,
                                       p_red, b_red, with_grads=False).value

        res = pooled_softmax_loss(anchors, targets, pos, 0.3, p_red, b_red)
        numeric = finite_difference(value, [anchors, targets])
        assert max_relative_error([res.d_anchors, res.d_targets],
                                  numeric) < 1e-6


def test_direction_wrappers_share_the_core():
    rng = np.random.default_rng(7)
    queries, labels = unit_rows(rng, 4, 3), unit_rows(rng, 5, 3)
    pos = mask_of(random_positive_sets(rng, 4, 5), 5)
    # both directions of the symmetric loss are the one pooled core, the
    # label-anchored one on the transposed mask
    both = symmetric_pool_loss(queries, labels, pos, 0.1, 0.5)
    fwd = pooled_softmax_loss(queries, labels, pos, 0.1)
    rev = pooled_softmax_loss(labels, queries, pos.T, 0.1)
    assert both.q2l_value == fwd.value
    assert both.l2q_value == rev.value


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
    cfg = LossConfig(temperature=0.1, de_q2l_weight=1.0, clf_q2l_weight=0.0)
    de = retrieval_loss(queries, labels, pos, cfg)
    clf = classifier_loss(queries, labels, pos, cfg)
    assert de.value == pytest.approx(de.q2l_value)
    assert clf.value == pytest.approx(clf.l2q_value)


def test_combined_loss_is_convex_mix():
    assert combined_loss(2.0, 4.0, 0.5) == 3.0
    assert combined_loss(2.0, 4.0, 1.0) == 2.0
    assert combined_loss(2.0, 4.0, 0.0) == 4.0
    with pytest.raises(ConfigError):
        combined_loss(1.0, 1.0, 1.5)



def test_loss_config_validation():
    LossConfig().validate()
    bad = [dict(temperature=0.0), dict(temperature=-1.0),
           dict(de_weight=1.2), dict(de_q2l_weight=-0.1),
           dict(clf_q2l_weight=2.0), dict(positive_reduction="avg"),
           dict(batch_reduction="none"), dict(extra_clf_positives=-2)]
    for kw in bad:
        with pytest.raises(ConfigError):
            LossConfig(**kw).validate()


def test_pool_loss_rejects_bad_arguments():
    a, t = np.zeros((1, 2)), np.zeros((2, 2))
    pos = np.array([[True, False]])
    with pytest.raises(ConfigError):
        pooled_softmax_loss(a, t, pos, temperature=0.0)
    with pytest.raises(ConfigError):
        pooled_softmax_loss(a, t, pos, 0.1, positive_reduction="max")
    with pytest.raises(ValueError, match="mask"):
        pooled_softmax_loss(a, t, np.eye(2, dtype=bool), 0.1)   # 2 anchors
    with pytest.raises(ValueError, match="mask"):
        pooled_softmax_loss(a, t, pos.T, 0.1)                   # transposed
    with pytest.raises(ValueError, match="mask"):
        pooled_softmax_loss(a, t, np.array([[1, 0]]), 0.1)      # not boolean
    with pytest.raises(ValueError, match="mask"):               # would broadcast
        pooled_softmax_loss(np.zeros((3, 2)), t, pos, 0.1)
