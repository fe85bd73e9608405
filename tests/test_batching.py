"""Balanced clustered batches, per-query sampling, and batch collation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmclite import (ConfigError, batch_stats, cluster_queries, collate_batch,
                     collate_from_samples, make_dataset, mine_hard_negatives,
                     sample_ids, synth_dataset)
from xmclite.batching import BATCH_STATS_HEADER
from xmclite.data import Vocabulary

from conftest import id_dataset, sets_of, unit_rows
from oracles import bf_collate, loop_pool_membership


def _arr(xs):
    return np.asarray(xs, dtype=np.int64)


# ---------------------------------------------------------------- clustering

@pytest.mark.parametrize("n,k", [(10, 3), (64, 7), (5, 5), (12, 1), (3, 9),
                                 (1, 1), (33, 4)])
def test_batch_plan_partitions_all_queries_evenly(n, k):
    rng = np.random.default_rng(n * 100 + k)
    plan = cluster_queries(unit_rows(rng, n, 6), k, seed=0)
    sizes = [len(ids) for ids in plan]
    assert len(plan) == min(k, n)
    assert max(sizes) - min(sizes) <= 1
    merged = np.concatenate(plan)
    assert np.array_equal(np.sort(merged), np.arange(n))
    for ids in plan:
        assert np.all(np.diff(ids) > 0)  # each batch is sorted


def test_single_batch_and_singletons():
    rng = np.random.default_rng(0)
    points = unit_rows(rng, 6, 4)
    assert np.array_equal(cluster_queries(points, 1, 0)[0],
                          np.arange(6))
    singles = cluster_queries(points, 6, 0)
    assert sorted(int(ids[0]) for ids in singles) == list(range(6))


def test_nearby_angles_land_in_the_same_batch():
    angles = np.deg2rad([0.0, 2.0, 180.0, 182.0])
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    plan = cluster_queries(points, 2, seed=0)
    groups = {frozenset(ids.tolist()) for ids in plan}
    assert groups == {frozenset({0, 1}), frozenset({2, 3})}


def test_two_separated_bundles_split_cleanly():
    rng = np.random.default_rng(1)
    center = unit_rows(rng, 1, 8)[0]
    bundle_a = center + 0.05 * rng.normal(size=(16, 8))
    bundle_b = -center + 0.05 * rng.normal(size=(16, 8))
    points = np.vstack([bundle_a, bundle_b])
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    plan = cluster_queries(points, 2, seed=3)
    groups = {frozenset(ids.tolist()) for ids in plan}
    assert groups == {frozenset(range(16)), frozenset(range(16, 32))}


def test_clustering_is_deterministic_and_epoch_dependent():
    rng = np.random.default_rng(2)
    points = unit_rows(rng, 40, 6)
    a = cluster_queries(points, 4, seed=9, epoch=1)
    b = cluster_queries(points, 4, seed=9, epoch=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = cluster_queries(points, 4, seed=9, epoch=2)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_cluster_queries_rejects_bad_batch_count():
    with pytest.raises(ConfigError):
        cluster_queries(np.zeros((3, 2)), 0, seed=0)


# ------------------------------------------------------------------ sampling

def test_sample_positives_contracts():
    rng = np.random.default_rng(3)
    pool = _arr([4, 9, 11, 30])
    full = sample_ids(pool, 10, rng)
    assert np.array_equal(full, pool)
    assert full.base is None and full is not pool  # a safe copy
    sub = sample_ids(pool, 2, rng)
    assert sub.size == 2
    assert np.all(np.diff(sub) > 0)
    assert np.all(np.isin(sub, pool))
    assert sample_ids(pool, 0, rng).size == 0
    assert sample_ids(_arr([]), 3, rng).size == 0


def test_sample_positives_inclusion_is_uniform():
    rng = np.random.default_rng(4)
    pool = _arr([10, 20, 30, 40])
    hits = {int(p): 0 for p in pool}
    trials = 30000
    for _ in range(trials):
        for p in sample_ids(pool, 2, rng):
            hits[int(p)] += 1
    for p in pool:
        assert abs(hits[int(p)] / trials - 0.5) < 0.01


def test_sample_ids_builds_a_generator_only_to_draw(monkeypatch):
    built = []
    real = np.random.default_rng

    def counting(seed=None):
        built.append(seed)
        return real(seed)
    monkeypatch.setattr(np.random, "default_rng", counting)
    ids = _arr([7, 3, 5])
    for cap in (0, 3, 4):
        sample_ids(ids, cap, [1, 2, 3])
    sample_ids(_arr([]), 2, [1, 2, 3])
    assert built == []
    got = sample_ids(ids, 2, [1, 2, 3])
    assert built == [[1, 2, 3]]
    # a key and the generator it seeds draw the same sample
    assert np.array_equal(got, sample_ids(ids, 2, real([1, 2, 3])))
    # collation makes no generator when no query has more ids than its cap
    built.clear()
    ds = _dataset_from_sets([[0, 1], [2], []], 3)
    collate_batch(_arr([0, 1, 2]), ds, None, max_positives=2,
                  max_negatives=0, seed=0, extra_clf_positives=1)
    assert built == []


# ------------------------------------------------------------------ collation

def _dataset_from_sets(sets, num_labels):
    vocab = Vocabulary(32)
    texts = [np.zeros(0, dtype=np.int64)] * len(sets)
    label_texts = [vocab.tokenize(f"l{j}") for j in range(num_labels)]
    return make_dataset(texts, label_texts, sets, num_labels, vocab)


def test_collate_from_samples_worked_example():
    ds = _dataset_from_sets([[0, 1, 2], [1, 3]], 5)
    batch = collate_from_samples(_arr([0, 1]), ds,
                                 sampled_pos=[_arr([0]), _arr([3])],
                                 sampled_neg=[_arr([4]), _arr([1])])
    assert batch.label_pool.tolist() == [0, 1, 3, 4]
    # each query's pool positives = sampled ones plus pool labels that are
    # true positives (label 1 reached the pool as query 1's hard negative)
    assert batch.positives.tolist() == [[True, True, False, False],
                                        [False, True, True, False]]
    assert batch.label_pool[batch.positives[0]].tolist() == [0, 1]
    assert batch.label_pool[batch.positives[1]].tolist() == [1, 3]
    assert [v.tolist() for v in batch.pb_idx] == [[0, 1], [1, 2]]
    # transpose view, positions into the query list
    assert [v.tolist() for v in sets_of(batch.positives.T)] == \
        [[0], [0, 1], [1], []]
    # no extra classifier positives: classifier pool aliases the base pool
    assert batch.clf_pool is batch.label_pool
    assert batch.clf_positives is batch.positives


def test_anothers_hard_negative_counts_as_positive():
    ds = _dataset_from_sets([[0, 1], [2]], 4)
    batch = collate_from_samples(_arr([0, 1]), ds,
                                 sampled_pos=[_arr([0]), _arr([2])],
                                 sampled_neg=[_arr([]), _arr([1])])
    assert batch.label_pool.tolist() == [0, 1, 2]
    # label 1 arrived via query 1
    assert batch.label_pool[batch.positives[0]].tolist() == [0, 1]
    assert batch.label_pool[batch.positives[1]].tolist() == [2]
    assert [v.tolist() for v in sets_of(batch.positives.T)] == \
        [[0], [0], [1]]


def _case(truth, num_labels, query_ids, pos, neg, extras=None):
    """A collation input: dataset, query ids, samples and extras."""
    return (_dataset_from_sets(truth, num_labels), _arr(query_ids),
            [_arr(p) for p in pos], [_arr(h) for h in neg],
            None if extras is None else [_arr(e) for e in extras])


@st.composite
def _collation_cases(draw):
    """Datasets with empty truth rows, batches with repeated query ids or
    none, samples that leave the pool empty or bring in labels no query
    has, and extra classifier positives (none, all empty, or some)."""
    num_labels = draw(st.integers(1, 10))
    label = st.integers(0, num_labels - 1)
    n = draw(st.integers(1, 8))
    truth = [sorted(draw(st.sets(label, max_size=6))) for _ in range(n)]
    query_ids = draw(st.lists(st.integers(0, n - 1), max_size=8))
    ids = st.sets(label, max_size=3).map(sorted)
    pos = [draw(ids) for _ in query_ids]
    neg = [draw(ids) for _ in query_ids]
    extras = [draw(ids) for _ in query_ids] if draw(st.booleans()) else None
    return _case(truth, num_labels, query_ids, pos, neg, extras)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


def _assert_membership(mask, query_ids, pool, ds):
    """``mask`` is the (queries, pool) boolean mask whose rows and columns
    give the per-query loop's ids and positions."""
    assert mask.dtype == bool and mask.shape == (query_ids.size, pool.size)
    pb_ids, pb_idx, pl_ids, pl_idx = loop_pool_membership(query_ids, pool, ds)
    _assert_same_arrays([pool[row] for row in mask], pb_ids)
    _assert_same_arrays(sets_of(mask), pb_idx)
    _assert_same_arrays([query_ids[col] for col in mask.T], pl_ids)
    _assert_same_arrays(sets_of(mask.T), pl_idx)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_collation_cases())
# an empty pool, and a pool label (3) in no truth set next to an empty row
@example(_case([[0, 1], []], 3, [0, 1], [[], []], [[], []], [[], []]))
@example(_case([[0, 2], [], [1, 2]], 4, [2, 0, 1], [[2], [], [1]],
               [[3], [1], []], [[1], [], [2]]))
def test_collate_from_samples_equals_the_per_query_loop(case):
    ds, query_ids, pos, neg, extras = case
    batch = collate_from_samples(query_ids, ds, pos, neg, extras)
    pool = np.unique(np.concatenate([_arr([])] + pos + neg))
    assert np.array_equal(batch.label_pool, pool)
    _assert_membership(batch.positives, query_ids, pool, ds)
    if extras is None or not any(e.size for e in extras):
        assert batch.clf_pool is batch.label_pool
        assert batch.clf_positives is batch.positives
        return
    clf_pool = np.unique(np.concatenate([pool] + extras))
    assert np.array_equal(batch.clf_pool, clf_pool)
    _assert_membership(batch.clf_positives, query_ids, clf_pool, ds)


def test_collate_batch_matches_brute_force_definitions():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 10))
        num_labels = int(rng.integers(4, 16))
        ds = id_dataset(rng, n, num_labels, max_pos=4)
        size = int(rng.integers(1, n, endpoint=True))
        query_ids = np.sort(rng.choice(n, size=size, replace=False))
        pos_cap = int(rng.integers(1, 4))
        neg_cap = int(rng.integers(0, 4))
        cache = mine_hard_negatives(unit_rows(rng, n, 5),
                                    unit_rows(rng, num_labels, 5),
                                    ds.positive_sets(),
                                    cache_size=max(neg_cap, 1) * 2)
        batch = collate_batch(query_ids, ds, cache, pos_cap, neg_cap,
                              seed=trial, epoch=1, batch_index=2)
        pool, pb, pl = bf_collate(
            query_ids.tolist(),
            {int(q): ds.positives(int(q)) for q in query_ids},
            batch.sampled_positives, batch.sampled_hard_negatives)
        assert batch.label_pool.tolist() == pool
        for i, qid in enumerate(query_ids):
            pb_ids = batch.label_pool[batch.positives[i]]
            assert pb_ids.tolist() == pb[int(qid)]
            # sampled positives are a subset; everything is ground truth
            assert np.all(np.isin(batch.sampled_positives[i], pb_ids))
            assert np.all(np.isin(pb_ids, ds.positives(int(qid))))
            # mined negatives never collide with the query's own truth
            assert not np.any(np.isin(batch.sampled_hard_negatives[i],
                                      ds.positives(int(qid))))
            assert batch.label_pool[batch.pb_idx[i]].tolist() == \
                pb_ids.tolist()
        for j, lab in enumerate(batch.label_pool):
            assert query_ids[batch.positives[:, j]].tolist() == pl[int(lab)]


def test_collate_duality_between_query_and_label_views():
    rng = np.random.default_rng(6)
    ds = id_dataset(rng, 12, 20, max_pos=5)
    cache = mine_hard_negatives(unit_rows(rng, 12, 4), unit_rows(rng, 20, 4),
                                ds.positive_sets(), cache_size=6)
    batch = collate_batch(np.arange(12), ds, cache, max_positives=2, max_negatives=2, seed=0)
    # the positions ``pb_idx`` lists per query and the mask's columns per
    # label are the same pairs
    pl_idx = sets_of(batch.positives.T)
    for qpos in range(12):
        for j in batch.pb_idx[qpos]:
            assert qpos in pl_idx[j].tolist()
    for j in range(batch.label_pool.size):
        for qpos in pl_idx[j]:
            assert j in batch.pb_idx[qpos].tolist()


def test_collate_is_deterministic_and_query_keyed():
    rng = np.random.default_rng(7)
    ds = id_dataset(rng, 10, 15, max_pos=5)
    cache = mine_hard_negatives(unit_rows(rng, 10, 4), unit_rows(rng, 15, 4),
                                ds.positive_sets(), cache_size=8)
    a = collate_batch(_arr([1, 4, 7]), ds, cache, 2, 2, seed=3, epoch=2,
                      batch_index=5)
    b = collate_batch(_arr([1, 4, 7]), ds, cache, 2, 2, seed=3, epoch=2,
                      batch_index=5)
    assert a.label_pool.tolist() == b.label_pool.tolist()
    for x, y in zip(a.sampled_positives, b.sampled_positives):
        assert np.array_equal(x, y)
    # the same query draws the same samples regardless of batch position
    c = collate_batch(_arr([7, 1]), ds, cache, 2, 2, seed=3, epoch=2,
                      batch_index=5)
    assert np.array_equal(c.sampled_positives[1], a.sampled_positives[0])
    assert np.array_equal(c.sampled_hard_negatives[0],
                          a.sampled_hard_negatives[2])


def test_collate_without_cache_requires_eta_zero():
    rng = np.random.default_rng(8)
    ds = id_dataset(rng, 4, 6)
    with pytest.raises(ConfigError):
        collate_batch(np.arange(4), ds, None, max_positives=2, max_negatives=1, seed=0)
    batch = collate_batch(np.arange(4), ds, None, max_positives=2, max_negatives=0, seed=0)
    assert all(h.size == 0 for h in batch.sampled_hard_negatives)


def test_extra_classifier_positives_extend_only_the_classifier_pool():
    rng = np.random.default_rng(9)
    ds = id_dataset(rng, 8, 30, max_pos=6)
    base = collate_batch(np.arange(8), ds, None, max_positives=1, max_negatives=0, seed=1)
    extra = collate_batch(np.arange(8), ds, None, max_positives=1, max_negatives=0, seed=1,
                          extra_clf_positives=2)
    # the retrieval-side pool is untouched
    assert base.label_pool.tolist() == extra.label_pool.tolist()
    assert set(extra.clf_pool) >= set(extra.label_pool)
    grew = False
    for i in range(8):
        e = extra.extra_clf_positives[i]
        assert not np.any(np.isin(e, extra.sampled_positives[i]))
        assert np.all(np.isin(e, ds.positives(i)))
        assert e.size <= 2
        grew = grew or e.size > 0
        assert extra.clf_pool[extra.clf_positives[i]].tolist() == \
            np.intersect1d(ds.positives(i), extra.clf_pool).tolist()
    assert grew  # with up to 6 positives and max_positives=1 some query has leftovers


# ---------------------------------------------------------------- statistics

def test_batch_stats_with_full_positive_sampling():
    ds = synth_dataset(40, 12, seed=0, positives_per_instance=(1, 3))
    rng = np.random.default_rng(10)
    emb = unit_rows(rng, 40, 6)
    stats = batch_stats(ds, cluster_queries(emb, 5, seed=0), None,
                        max_positives=5, max_negatives=0, seed=0)
    truth_mean = np.mean([ds.positives(i).size for i in range(40)])
    assert stats.mean_pb == pytest.approx(float(truth_mean))
    assert np.all(stats.gain_sizes == 0)
    assert stats.batch_size == 8
    assert stats.pb_sizes.size == 40


def test_batch_stats_agrees_with_manual_recount():
    rng = np.random.default_rng(11)
    ds = id_dataset(rng, 30, 25, max_pos=5)
    emb = unit_rows(rng, 30, 6)
    l_emb = unit_rows(rng, 25, 6)
    cache = mine_hard_negatives(emb, l_emb, ds.positive_sets(), cache_size=8)
    plan = cluster_queries(emb, 4, seed=5)
    stats = batch_stats(ds, plan, cache, max_positives=2, max_negatives=3,
                        seed=5)
    manual = []
    for b, ids in enumerate(plan):
        batch = collate_batch(ids, ds, cache, 2, 3, seed=5, epoch=0,
                              batch_index=b)
        manual.extend(np.intersect1d(ds.positives(int(q)),
                                     batch.label_pool).size for q in ids)
    assert stats.pb_sizes.tolist() == manual
    assert stats.pool_sizes.size == 4


def test_batch_stats_csv_row_matches_header():
    ds = synth_dataset(10, 6, seed=1)
    rng = np.random.default_rng(13)
    stats = batch_stats(ds, cluster_queries(unit_rows(rng, 10, 4), 2, seed=0),
                        None, max_positives=2, max_negatives=0, seed=0)
    fields = stats.csv_row().split(",")
    assert len(fields) == len(BATCH_STATS_HEADER.split(","))
    assert int(fields[0]) == 2 and int(fields[1]) == 0
    float(fields[3]), float(fields[4]), float(fields[5]), float(fields[6])
