"""Precision@k, propensity model, propensity-scored precision, report shape."""

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmclite import ConfigError, METRICS_SCHEMA, metrics_report, propensity

from conftest import random_positive_sets
from oracles import bf_precision_at_k, bf_psp_at_k, loop_metrics_report

# frozen from an independent stdlib computation (N=1000, A=0.55, B=1.5)
C_N1000 = 9.77888866709656
P_NL100 = 0.5648345357426586


def _p_at(predictions, truth_sets, k):
    """The report's P@k, under uniform propensities, which it does not read."""
    num_labels = 1 + max((int(x) for t in truth_sets for x in t), default=0)
    return metrics_report(predictions, truth_sets, np.ones(num_labels),
                          (k,))[f"P@{k}"]


def _psp_at(predictions, truth_sets, propensities, k):
    """The report's PSP@k."""
    return metrics_report(predictions, truth_sets, propensities,
                          (k,))[f"PSP@{k}"]


def test_precision_at_k_hand_example():
    preds = [[3, 0, 9]]
    truth = [[0, 9, 4]]
    assert _p_at(preds, truth, 3) == pytest.approx(2 / 3)
    assert _p_at(preds, truth, 1) == 0.0


def test_precision_counts_empty_truth_as_zero():
    preds = [[1, 2], [3, 4]]
    truth = [[1], []]
    assert _p_at(preds, truth, 1) == pytest.approx(0.5)


def test_precision_short_prediction_lists_pad_as_misses():
    assert _p_at([[5]], [[5, 6, 7]], 3) == pytest.approx(1 / 3)
    assert _p_at([[]], [[1]], 2) == 0.0


def test_precision_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, l = int(rng.integers(1, 10)), int(rng.integers(3, 20))
        preds = [rng.permutation(l)[:int(rng.integers(0, l, endpoint=True))]
                 for _ in range(n)]
        truth = random_positive_sets(rng, n, l, max_pos=5, allow_empty=True)
        for k in (1, 3, 5):
            got = _p_at(preds, truth, k)
            assert got == pytest.approx(bf_precision_at_k(preds, truth, k),
                                        abs=1e-12)
            assert isinstance(got, float)


def test_propensity_frozen_values_and_shapes():
    p = propensity(100, 1000)
    assert p == pytest.approx(P_NL100, rel=1e-12)
    # the model constant is determined by (N, A, B)
    inferred_c = (1.0 / p - 1.0) * (100 + 1.5) ** 0.55
    assert inferred_c == pytest.approx(C_N1000, rel=1e-9)
    arr = propensity(np.array([0, 10, 100]), 1000)
    assert arr.shape == (3,)
    assert np.all(np.diff(arr) > 0)  # rarer labels are less observable


def test_propensity_limits_and_errors():
    assert propensity(10 ** 9, 1000) > 0.999
    flat = propensity(np.array([1, 50, 2000]), 1000, a=0.0)
    assert np.allclose(flat, flat[0])
    with pytest.raises(ConfigError):
        propensity(5, 2)  # ln N <= 1: model undefined


def test_psp_equals_precision_under_uniform_propensities():
    rng = np.random.default_rng(1)
    n, l, k = 12, 15, 3
    preds = [rng.permutation(l)[:6] for _ in range(n)]
    truth = random_positive_sets(rng, n, l, max_pos=6, allow_empty=False)
    truth = [np.union1d(t, rng.choice(l, size=k, replace=False))
             for t in truth]  # guarantee >= k positives per query
    props = np.full(l, 0.37)
    got = _psp_at(preds, truth, props, k)
    want = _p_at(preds, truth, k)
    assert got == pytest.approx(want, abs=1e-12)


def test_psp_perfect_predictions_score_one():
    truth = [[4, 2], [0]]
    preds = [[2, 4], [0]]
    props = np.linspace(0.2, 0.9, 6)
    assert _psp_at(preds, truth, props, 2) == pytest.approx(1.0)


def test_psp_ignores_empty_truth_queries():
    props = np.full(4, 0.5)
    value = _psp_at([[0], [1]], [[0], []], props, 1)
    assert value == pytest.approx(1.0)
    assert _psp_at([[0]], [[]], props, 1) == 0.0


def test_psp_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, l = int(rng.integers(1, 10)), int(rng.integers(3, 20))
        preds = [rng.permutation(l)[:int(rng.integers(1, l, endpoint=True))]
                 for _ in range(n)]
        truth = random_positive_sets(rng, n, l, max_pos=5, allow_empty=True)
        props = rng.uniform(0.05, 1.0, size=l)
        for k in (1, 2, 4):
            got = _psp_at(preds, truth, props, k)
            assert got == pytest.approx(
                bf_psp_at_k(preds, truth, props, k), abs=1e-12)


def test_k_must_be_positive():
    with pytest.raises(ConfigError):
        metrics_report([[0]], [[0]], np.ones(2), (0,))
    with pytest.raises(ConfigError):
        metrics_report([[0]], [[0]], np.ones(2), (3, -1))


def test_metrics_report_shape_and_schema():
    rng = np.random.default_rng(3)
    l = 12
    preds = [rng.permutation(l)[:5] for _ in range(6)]
    truth = random_positive_sets(rng, 6, l, max_pos=4)
    props = propensity(np.arange(l), 600)
    report = metrics_report(preds, truth, props, k_list=(1, 3, 5))
    assert sorted(report) == ["P@1", "P@3", "P@5", "PSP@1", "PSP@3", "PSP@5"]
    jsonschema.validate(report, METRICS_SCHEMA)
    assert all(isinstance(v, float) and 0.0 <= v <= 1.0
               for v in report.values())


def test_metrics_schema_rejects_foreign_keys():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"accuracy": 0.5}, METRICS_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"P@0": 0.5}, METRICS_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"P@1": 1.5}, METRICS_SCHEMA)


@st.composite
def _ranking_cases(draw):
    """Predictions, truth sets, propensities and a k list that between them
    hold ragged, empty, short and 2-d prediction lists, duplicate, negative
    and >= L ids, empty truth rows, unsorted or repeated k up to 10, and
    rows with 8 or more hits or truth labels."""
    num_labels = draw(st.integers(1, 14))
    n = draw(st.integers(0, 8))
    label = st.integers(0, num_labels - 1)
    truth = [sorted(draw(st.sets(label, max_size=12))) for _ in range(n)]
    foreign = st.one_of(st.integers(-3, -1),
                        st.integers(num_labels, num_labels + 3))

    def ranked(row, lo, hi):
        # Mixed ids, or true labels only, so that rows with 8 or more hits
        # occur often.
        true = st.sampled_from(row) if row else label
        mixed = st.one_of(true, true, label, foreign)
        return st.one_of(st.lists(mixed, min_size=lo, max_size=hi),
                         st.lists(true, min_size=max(lo, min(8, hi)),
                                  max_size=hi))

    if draw(st.booleans()):
        preds = [draw(ranked(row, 0, 12)) for row in truth]
    else:
        width = draw(st.integers(0, 12))
        rows = [draw(ranked(row, width, width)) for row in truth]
        preds = np.array(rows, dtype=np.int64).reshape(n, width)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    props = np.random.default_rng(seed).uniform(0.05, 1.0, size=num_labels)
    k_list = tuple(draw(st.lists(st.integers(1, 10), min_size=1, max_size=4)))
    return preds, truth, props, k_list


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ranking_cases())
# Both 8-term sums of this row differ between numpy's pairwise sum and a
# sequential one.
@example(([list(range(9, -1, -1))], [list(range(10))],
          np.random.default_rng(1).uniform(0.05, 1.0, size=10), (8,)))
def test_metrics_equal_the_per_query_loop_bitwise(case):
    preds, truth, props, k_list = case
    want = loop_metrics_report(preds, truth, props, k_list)
    got = metrics_report(preds, truth, props, k_list)
    assert got == want and list(got) == list(want)
