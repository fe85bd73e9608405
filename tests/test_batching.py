"""Balanced clustered batches, per-query sampling, and batch collation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xmclite.batching as batching
from xmclite import (CollatedBatch, ConfigError, HardNegativeCache,
                     batch_stats, cluster_queries, collate_batch, keyed_sample,
                     make_dataset, mine_hard_negatives, synth_dataset)
from xmclite.batching import (BATCH_STATS_HEADER, STREAM_NEGATIVES,
                              STREAM_POSITIVES,
                              _pool_membership, sample_keys)
from xmclite.data import Vocabulary

from conftest import (documented_key, id_dataset, redraw, redraw_samples,
                      sets_of, unit_rows)
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

def _rows_of(sets):
    """``keyed_sample``'s candidate arguments for per-query id lists: the
    row of each candidate and the concatenated ids."""
    row = _arr([r for r, ids in enumerate(sets) for _ in ids])
    return row, _arr([x for ids in sets for x in ids])


def test_sample_positives_contracts():
    pool = _arr([4, 9, 11, 30])
    row = np.zeros(pool.size, dtype=np.int64)
    key = (3, STREAM_POSITIVES, 0, 0)
    full = keyed_sample(row, pool, _arr([0]), 10, key)
    assert full.dtype == bool and full.shape == pool.shape
    assert np.array_equal(pool[full], pool)
    sub = pool[keyed_sample(row, pool, _arr([0]), 2, key)]
    assert sub.size == 2
    assert np.all(np.diff(sub) > 0)
    assert np.all(np.isin(sub, pool))
    assert not keyed_sample(row, pool, _arr([0]), 0, key).any()
    assert keyed_sample(_arr([]), _arr([]), _arr([0]), 3, key).size == 0
    # per query: rows within the cap keep all, longer rows exactly the cap
    row, ids = _rows_of([[1, 2, 3, 4, 5], [6], [], [7, 8, 9]])
    keep = keyed_sample(row, ids, _arr([0, 1, 2, 3]), 2, key)
    assert np.bincount(row[keep], minlength=4).tolist() == [2, 1, 0, 2]


def test_sample_positives_inclusion_is_uniform():
    pool = _arr([10, 20, 30, 40])
    hits = {int(p): 0 for p in pool}
    trials, queries = 30000, 100
    row, ids = np.repeat(np.arange(queries), pool.size), np.tile(pool, queries)
    for epoch in range(trials // queries):
        keep = keyed_sample(row, ids, np.arange(queries), 2,
                            (4, STREAM_POSITIVES, epoch, 0))
        for p in ids[keep]:
            hits[int(p)] += 1
    for p in pool:
        assert abs(hits[int(p)] / trials - 0.5) < 0.01


def test_sample_keys_follow_the_documented_formula():
    qids, labels = _arr([0, 5, 5, 2**40]), _arr([7, 0, 3, 2**62])
    for seed in (0, 9, 2**64 - 1):
        keys = sample_keys(seed, STREAM_NEGATIVES, 4, 2, qids, labels)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            documented_key(seed, STREAM_NEGATIVES, 4, 2, int(q), int(lab))
            for q, lab in zip(qids, labels)]


def test_a_querys_draw_ignores_candidate_order_and_batch_mates():
    rng = np.random.default_rng(12)
    for trial in range(30):
        sets = [rng.choice(40, size=int(rng.integers(0, 12)), replace=False)
                for _ in range(6)]
        qids = rng.choice(1000, size=6, replace=False)
        key, cap = (trial, STREAM_NEGATIVES, 1, 2), int(rng.integers(1, 5))
        row, ids = _rows_of(sets)
        keep = keyed_sample(row, ids, qids, cap, key)
        # shuffling the candidates, across queries too, keeps the same pairs
        perm = rng.permutation(ids.size)
        shuffled = keyed_sample(row[perm], ids[perm], qids, cap, key)
        assert sorted(zip(row[perm][shuffled], ids[perm][shuffled])) == \
            sorted(zip(row[keep], ids[keep]))
        for r, cands in enumerate(sets):
            # each query alone draws what it drew in the batch, and that is
            # its cap smallest documented keys
            alone = _arr(cands)[keyed_sample(np.zeros(len(cands), np.int64),
                                             _arr(cands), qids[r:r + 1], cap,
                                             key)]
            assert sorted(alone) == sorted(ids[keep & (row == r)])
            assert sorted(alone) == redraw(cands, cap, *key, int(qids[r])
                                           ).tolist()
    # the same holds through collation: a cache list's order and the other
    # queries in the batch change no query's draw
    ds = id_dataset(rng, 8, 30, max_pos=6)
    cache = HardNegativeCache.from_lists(
        [rng.choice(30, 8, replace=False) for _ in range(8)])
    flipped = HardNegativeCache.from_lists([n[::-1] for n in cache.negatives])
    whole = collate_batch(np.arange(8), ds, cache, 2, 3, seed=5)
    for q in range(8):
        one = collate_batch(_arr([q]), ds, flipped, 2, 3, seed=5)
        pos, neg = redraw_samples(ds, cache, [q], 2, 3, seed=5)
        assert one.label_pool.tolist() == np.union1d(pos[0], neg[0]).tolist()
        assert np.all(np.isin(one.label_pool, whole.label_pool))


def test_collation_builds_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("collation built a Generator")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    ds = _dataset_from_sets([[0, 1, 2, 3], [2, 4, 5], [], [1, 5]], 8)
    cache = HardNegativeCache.from_lists(
        [_arr([6, 7, 4]), _arr([0, 1, 6, 7]), _arr([3]), _arr([])])
    # every stream has a query with more candidates than its cap
    batch = collate_batch(_arr([0, 1, 2, 3]), ds, cache, max_positives=1,
                          max_negatives=2, seed=3)
    assert batch.positives.shape == (4, batch.label_pool.size)
    # and no key is computed when no query has more candidates than the cap
    keyed = []
    monkeypatch.setattr(batching, "sample_keys",
                        lambda *a: keyed.append(a) or sample_keys(*a))
    collate_batch(_arr([0, 1, 2, 3]), ds, cache, max_positives=4,
                  max_negatives=4, seed=3)
    assert keyed == []
    collate_batch(_arr([0, 1, 2, 3]), ds, cache, max_positives=1,
                  max_negatives=4, seed=3)
    assert len(keyed) == 1


# ------------------------------------------------------------------ collation

def _dataset_from_sets(sets, num_labels):
    vocab = Vocabulary(32)
    texts = [np.zeros(0, dtype=np.int64)] * len(sets)
    label_texts = [vocab.tokenize(f"l{j}") for j in range(num_labels)]
    return make_dataset(texts, label_texts, sets, num_labels, vocab)


def _truth_rows(ds, query_ids):
    """``_pool_membership``'s truth arguments for ``query_ids``: the row of
    each truth id, the ids, and the query count."""
    t_row = [r for r, q in enumerate(query_ids) for _ in ds.positives(int(q))]
    t_ids = [lab for q in query_ids for lab in ds.positives(int(q))]
    return _arr(t_row), _arr(t_ids), len(query_ids)


def test_pool_membership_worked_example():
    ds = _dataset_from_sets([[0, 1, 2], [1, 3]], 5)
    pool = _arr([0, 1, 3, 4])
    mask = _pool_membership(pool, *_truth_rows(ds, _arr([0, 1])))
    # a pool label counts for every query whose truth holds it
    assert mask.tolist() == [[True, True, False, False],
                             [False, True, True, False]]
    batch = CollatedBatch(pool, mask)
    assert [v.tolist() for v in batch.pb_idx] == [[0, 1], [1, 2]]
    # transpose view, positions into the query list
    assert [v.tolist() for v in sets_of(mask.T)] == [[0], [0, 1], [1], []]


def test_anothers_hard_negative_counts_as_positive():
    ds = _dataset_from_sets([[0, 1], [2]], 4)
    cache = HardNegativeCache.from_lists([_arr([3]), _arr([1])])
    # with seed 1 query 0 draws label 0, so label 1 comes from query 1
    assert redraw(ds.positives(0), 1, 1, STREAM_POSITIVES, 0, 0, 0
                  ).tolist() == [0]
    batch = collate_batch(_arr([0, 1]), ds, cache, max_positives=1,
                          max_negatives=1, seed=1)
    assert batch.label_pool.tolist() == [0, 1, 2, 3]
    assert batch.label_pool[batch.positives[0]].tolist() == [0, 1]
    assert batch.label_pool[batch.positives[1]].tolist() == [2]
    assert [v.tolist() for v in sets_of(batch.positives.T)] == \
        [[0], [0], [1], []]


def test_collate_keeps_a_mask_row_for_queries_without_positives():
    ds = _dataset_from_sets([[0, 1, 2], [3], []], 5)
    batch = collate_batch(_arr([0, 1, 2]), ds, None, max_positives=3,
                          max_negatives=0, seed=0)
    assert batch.label_pool.tolist() == [0, 1, 2, 3]
    assert batch.positives.tolist() == [[True, True, True, False],
                                        [False, False, False, True],
                                        [False, False, False, False]]
    batch = collate_batch(_arr([0, 1, 2]), ds, None, max_positives=1,
                          max_negatives=0, seed=0)
    assert batch.positives.shape == (3, 2)


def _case(truth, num_labels, query_ids, pool):
    """A membership input: dataset, query ids and sorted pool."""
    return _dataset_from_sets(truth, num_labels), _arr(query_ids), _arr(pool)


@st.composite
def _membership_cases(draw):
    """Datasets with empty truth rows, batches with repeated query ids or
    none, and pools that are empty or hold labels no query has."""
    num_labels = draw(st.integers(1, 10))
    label = st.integers(0, num_labels - 1)
    n = draw(st.integers(1, 8))
    truth = [sorted(draw(st.sets(label, max_size=6))) for _ in range(n)]
    query_ids = draw(st.lists(st.integers(0, n - 1), max_size=8))
    pool = sorted(draw(st.sets(label, max_size=num_labels)))
    return _case(truth, num_labels, query_ids, pool)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_membership_cases())
# an empty pool, and a pool label (3) in no truth set, each before a trailing
# query without truth
@example(_case([[0, 1], []], 3, [0, 1], []))
@example(_case([[0, 2], [], [1, 2]], 4, [2, 0, 1], [1, 2, 3]))
def test_pool_membership_equals_the_per_query_loop(case):
    ds, query_ids, pool = case
    mask = _pool_membership(pool, *_truth_rows(ds, query_ids))
    # rows and columns give the per-query loop's ids and positions
    assert mask.dtype == bool and mask.shape == (query_ids.size, pool.size)
    pb_ids, pb_idx, pl_ids, pl_idx = loop_pool_membership(query_ids, pool, ds)
    _assert_same_arrays([pool[row] for row in mask], pb_ids)
    _assert_same_arrays(sets_of(mask), pb_idx)
    _assert_same_arrays([query_ids[col] for col in mask.T], pl_ids)
    _assert_same_arrays(sets_of(mask.T), pl_idx)


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
        pos, neg = redraw_samples(ds, cache, query_ids, pos_cap, neg_cap,
                                  seed=trial, epoch=1, batch_index=2)
        pool, pb, pl = bf_collate(
            query_ids.tolist(),
            {int(q): ds.positives(int(q)) for q in query_ids}, pos, neg)
        assert batch.label_pool.tolist() == pool
        for i, qid in enumerate(query_ids):
            pb_ids = batch.label_pool[batch.positives[i]]
            assert pb_ids.tolist() == pb[int(qid)]
            # sampled positives are a subset; everything is ground truth
            assert np.all(np.isin(pos[i], pb_ids))
            assert np.all(np.isin(pb_ids, ds.positives(int(qid))))
            # mined negatives never collide with the query's own truth
            assert not np.any(np.isin(neg[i], ds.positives(int(qid))))
            assert batch.label_pool[batch.pb_idx[i]].tolist() == \
                pb_ids.tolist()
        for j, lab in enumerate(batch.label_pool):
            assert query_ids[batch.positives[:, j]].tolist() == pl[int(lab)]


def test_collation_keys_each_draw_by_seed_stream_epoch_batch_and_query():
    # the stream ids are part of every checkpoint digest
    assert (STREAM_POSITIVES, STREAM_NEGATIVES) == (2, 3)
    rng = np.random.default_rng(14)
    for trial in range(40):
        ds = id_dataset(rng, 12, 30, max_pos=6, allow_empty=True)
        cache = mine_hard_negatives(unit_rows(rng, 12, 5),
                                    unit_rows(rng, 30, 5),
                                    ds.positive_sets(), cache_size=8)
        query_ids = np.sort(rng.choice(12, size=int(rng.integers(1, 13)),
                                       replace=False))
        epoch, batch_index = trial % 3, 3 + trial % 4
        batch = collate_batch(query_ids, ds, cache, 2, 3, seed=trial,
                              epoch=epoch, batch_index=batch_index)
        pos, neg = redraw_samples(ds, cache, query_ids, 2, 3, trial, epoch,
                                  batch_index)
        pool = np.unique(np.concatenate([_arr([])] + pos + neg))
        assert np.array_equal(batch.label_pool, pool)
        assert batch.positives.shape == (query_ids.size, pool.size)


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
    assert np.array_equal(a.label_pool, b.label_pool)
    assert np.array_equal(a.positives, b.positives)
    # each query draws the same samples regardless of its batch position
    c = collate_batch(_arr([7, 4, 1]), ds, cache, 2, 2, seed=3, epoch=2,
                      batch_index=5)
    assert np.array_equal(c.label_pool, a.label_pool)
    assert np.array_equal(c.positives, a.positives[::-1])


def test_collate_without_cache_requires_eta_zero():
    rng = np.random.default_rng(8)
    ds = id_dataset(rng, 4, 6)
    with pytest.raises(ConfigError):
        collate_batch(np.arange(4), ds, None, max_positives=2, max_negatives=1, seed=0)
    batch = collate_batch(np.arange(4), ds, None, max_positives=2, max_negatives=0, seed=0)
    # no negatives: every pool label is some query's positive
    assert batch.positives.any(axis=0).all()


# ---------------------------------------------------------------- statistics

def test_batch_stats_with_full_positive_sampling():
    ds = synth_dataset(40, 12, seed=0, positives_per_instance=(1, 3))
    rng = np.random.default_rng(10)
    emb = unit_rows(rng, 40, 6)
    stats = batch_stats(ds, cluster_queries(emb, 5, seed=0), None,
                        max_positives=5, max_negatives=0, seed=0)
    truth_mean = np.mean([ds.positives(i).size for i in range(40)])
    assert stats.mean_pb == pytest.approx(float(truth_mean))
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
