"""Hard-negative mining and sampling from the cache."""

import numpy as np

from xmclite import HardNegativeCache, keyed_sample, mine_hard_negatives

from conftest import random_positive_sets, unit_rows
from oracles import bf_hard_negatives


def test_exact_mining_matches_brute_force():
    rng = np.random.default_rng(0)
    q, l = unit_rows(rng, 50, 8), unit_rows(rng, 40, 8)
    sets = random_positive_sets(rng, 50, 40, max_pos=5)
    cache = mine_hard_negatives(q, l, sets, cache_size=7)
    scores = q @ l.T
    for i in range(50):
        want = bf_hard_negatives(scores[i], sets[i], 7)
        assert cache.negatives[i].tolist() == want


def test_mining_excludes_every_positive():
    rng = np.random.default_rng(1)
    q, l = unit_rows(rng, 20, 6), unit_rows(rng, 30, 6)
    sets = random_positive_sets(rng, 20, 30, max_pos=6)
    cache = mine_hard_negatives(q, l, sets, cache_size=30)
    for i in range(20):
        assert not np.any(np.isin(cache.negatives[i], sets[i]))
        assert cache.negatives[i].size == 30 - len(sets[i])


def test_mining_ranks_by_score_with_stable_ties():
    # three identical label vectors: ranked by ascending id
    q = np.array([[1.0, 0.0]])
    l = np.array([[0.6, 0.0], [0.9, 0.0], [0.9, 0.0], [0.9, 0.0]])
    cache = mine_hard_negatives(q, l, [[2]], cache_size=4)
    assert cache.negatives[0].tolist() == [1, 3, 0]


def test_smaller_cache_is_a_prefix_of_a_larger_one():
    # small-integer vectors tie often, at and across every cut-off
    rng = np.random.default_rng(3)
    q = rng.integers(-2, 3, size=(30, 3)).astype(np.float64)
    l = rng.integers(-2, 3, size=(40, 3)).astype(np.float64)
    sets = random_positive_sets(rng, 30, 40, max_pos=6)
    big = mine_hard_negatives(q, l, sets, cache_size=12)
    for size in range(1, 12):
        small = mine_hard_negatives(q, l, sets, cache_size=size)
        for i in range(30):
            assert np.array_equal(big.negatives[i][:size], small.negatives[i])


def test_mining_truncates_and_handles_saturated_queries():
    rng = np.random.default_rng(2)
    q, l = unit_rows(rng, 1, 4), unit_rows(rng, 5, 4)
    cache = mine_hard_negatives(q, l, [[0, 1, 2, 3]], cache_size=10)
    assert cache.negatives[0].tolist() == [4]
    cache = mine_hard_negatives(q, l, [[0]], cache_size=2)
    assert cache.negatives[0].size == 2
    cache = mine_hard_negatives(q, l, [[0]], cache_size=0)
    assert cache.negatives[0].size == 0
    assert cache.indptr.tolist() == [0, 0]


def test_sampling_contracts_and_uniformity():
    cache = HardNegativeCache.from_lists(
        [np.array([3, 1, 4, 15, 5, 9], dtype=np.int64),
         np.zeros(0, dtype=np.int64)])
    assert cache.indptr.tolist() == [0, 6, 6]
    assert cache.indices.tolist() == [3, 1, 4, 15, 5, 9]

    def draw(q, cap, epoch=0):
        ids = cache.negatives[q]
        keep = keyed_sample(np.zeros(ids.size, dtype=np.int64), ids,
                            np.array([q]), cap, (4, 3, epoch, 0))
        return np.sort(ids[keep])

    got = draw(0, 3)
    assert got.size == 3 and np.all(np.diff(got) > 0)
    assert np.all(np.isin(got, cache.negatives[0]))
    assert draw(1, 3).size == 0
    assert draw(0, 0).size == 0
    everything = draw(0, 99)
    assert everything.tolist() == sorted(cache.negatives[0].tolist())

    hits = {int(x): 0 for x in cache.negatives[0]}
    trials = 12000
    for epoch in range(trials):
        for x in draw(0, 2, epoch):
            hits[int(x)] += 1
    for x, count in hits.items():
        assert abs(count / trials - 2 / 6) < 0.015
