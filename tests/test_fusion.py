import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctta.fusion import (
    ClassUpdateRecord,
    DomainUpdateRecord,
    PoolVersionError,
    fuse_nearest_pair,
    mst_compact,
    update_class_pool,
    update_domain_pool,
)
from ctta.numerics import BatchStats, SeededRng
from ctta.pools import ClassPromptPool, DomainPromptPool, FissionOutcome
from instancegen import (
    class_pool_tuples,
    domain_pool_tuples,
    random_class_pool,
    random_class_records,
    random_domain_pool,
    random_domain_record,
    random_prob,
)
from reference import (
    algorithm1_reference,
    algorithm2_reference,
    partition_sets,
    single_linkage_bruteforce,
)


def class_pool_bytes(pool):
    return b"".join(k.tobytes() + p.tobytes() for k, p in zip(pool.keys, pool.prompts))


def onehot(i, n=3):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def matched_record(pool, prompt, prediction, pseudo, weights):
    return ClassUpdateRecord(
        prompt, prediction, pseudo, FissionOutcome(prompt, weights, False, pool.version)
    )


def test_gate_skips_everything_bitwise():
    rng = SeededRng(0)
    pool = random_class_pool(rng, 4, 10, 3, 5)
    before = class_pool_bytes(pool)
    # uniform predictions have entropy ln 3 > 0.5
    records = [
        matched_record(pool, rng.normal(size=5), np.full(3, 1 / 3), random_prob(rng, 3), {0: 1.0})
        for _ in range(3)
    ]
    summary = update_class_pool(pool, records, 0.5, 0.1)
    assert summary.skipped == [0, 1, 2]
    assert class_pool_bytes(pool) == before
    assert len(pool) == 4


def test_sole_candidate_full_weight_replaces_prompt_keeps_key():
    pool = ClassPromptPool(10, 4, 3)
    key = random_prob(SeededRng(1), 3)
    pool.append(key.copy(), np.zeros(4), 0)
    learned = np.array([1.0, 2.0, 3.0, 4.0])
    rec = matched_record(pool, learned, onehot(0), onehot(0), {0: 1.0})
    update_class_pool(pool, [rec], 10.0, 0.0)  # alpha_c = 0 freezes the key
    np.testing.assert_array_equal(pool.prompts[0], learned)
    np.testing.assert_array_equal(pool.keys[0], key)


def test_fissioned_record_appends_pseudo_label_key():
    pool = ClassPromptPool(10, 4, 3)
    pseudo = random_prob(SeededRng(2), 3)
    rec = ClassUpdateRecord(
        np.ones(4), onehot(1), pseudo, FissionOutcome(np.ones(4), None, True, pool.version)
    )
    summary = update_class_pool(pool, [rec], 10.0, 0.1, created_at=7)
    assert summary.appended == [0]
    np.testing.assert_array_equal(pool.keys[0], pseudo)
    assert pool.created_at[0] == 7


def test_update_class_pool_matches_hand_simulation():
    # two-sample batch traced by hand through the sequential update
    pool = ClassPromptPool(10, 2, 2)
    pool.append(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0)
    alpha_c = 0.5
    p1 = np.array([2.0, 0.0])
    p2 = np.array([0.0, 4.0])
    yhat1 = np.array([1.0, 0.0])
    yhat2 = np.array([0.0, 1.0])
    recs = [
        matched_record(pool, p1, yhat1, yhat1, {0: 1.0}),
        matched_record(pool, p2, yhat2, yhat2, {0: 0.5}),
    ]
    update_class_pool(pool, recs, 10.0, alpha_c)
    # sample 1: key <- 0.5*[1,0] + 0.5*[.5,.5] = [.75,.25]; prompt <- [2,0]
    # sample 2: coeff 0.25: key <- 0.25*[0,1] + 0.75*[.75,.25] = [.5625,.4375]
    #           prompt <- 0.5*[0,4] + 0.5*[2,0] = [1,2]
    np.testing.assert_allclose(pool.keys[0], [0.5625, 0.4375], atol=1e-15)
    np.testing.assert_allclose(pool.prompts[0], [1.0, 2.0], atol=1e-15)


def test_update_rejects_stale_outcomes():
    rng = SeededRng(3)
    pool = random_class_pool(rng, 3, 10, 3, 5)
    recs = random_class_records(rng, pool, 2, fission_prob=0.0)
    pool.append(random_prob(rng, 3), np.zeros(5), 9)  # bumps version
    with pytest.raises(PoolVersionError):
        update_class_pool(pool, recs, 10.0, 0.1)

    dpool = random_domain_pool(rng, 3, 10, 4, 5)
    rec = random_domain_record(rng, dpool, fission_prob=0.0)
    fuse_nearest_pair(dpool)
    with pytest.raises(PoolVersionError):
        update_domain_pool(dpool, rec, 0.1)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_class_updates_are_convex_and_keys_stay_probabilities(seed):
    rng = SeededRng(seed)
    pool = random_class_pool(rng, int(rng.integers(1, 6)), 20, 3, 4)
    old = class_pool_tuples(pool)
    records = random_class_records(rng, pool, int(rng.integers(1, 6)), fission_prob=0.2)
    alpha_c = float(rng.uniform(0.0, 1.0))
    update_class_pool(pool, records, float(rng.uniform(0.2, 1.2)), alpha_c)
    for key in pool.keys:
        assert key.min() >= -1e-15
        assert abs(key.sum() - 1.0) <= 1e-9
    # single-record case: updated components lie between old and incoming values
    pool2 = random_class_pool(rng, 3, 20, 3, 4)
    old2 = class_pool_tuples(pool2)
    rec = random_class_records(rng, pool2, 1, fission_prob=0.0)[0]
    update_class_pool(pool2, [rec], 10.0, alpha_c)
    for i, w in rec.outcome.weights.items():
        lo = np.minimum(old2[i][1], rec.learned_prompt) - 1e-12
        hi = np.maximum(old2[i][1], rec.learned_prompt) + 1e-12
        assert np.all(pool2.prompts[i] >= lo)
        assert np.all(pool2.prompts[i] <= hi)


def test_mst_compact_merges_identical_pair_first():
    pool = ClassPromptPool(4, 3, 3)
    keys = [
        np.array([0.8, 0.1, 0.1]),
        np.array([0.1, 0.8, 0.1]),
        np.array([0.1, 0.1, 0.8]),
        np.array([0.4, 0.4, 0.2]),
        np.array([0.4, 0.4, 0.2]),
    ]
    for i, k in enumerate(keys):
        pool.append(k, np.full(3, float(i)), i)
    clustering = mst_compact(pool)
    assert clustering.num_groups == 4
    groups = partition_sets(clustering.assignment)
    assert frozenset({3, 4}) in groups
    assert len(pool) == 4


def test_mst_compact_single_group_is_grand_mean():
    pool = ClassPromptPool(1, 2, 2)
    for i, k in enumerate([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]):
        pool.append(np.array(k), np.array([float(i), 0.0]), i)
    clustering = mst_compact(pool)
    assert clustering.num_groups == 1
    assert len(pool) == 1
    np.testing.assert_allclose(pool.keys[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(pool.prompts[0], [1.0, 0.0], atol=1e-12)
    assert pool.created_at[0] == 0


def test_mst_compact_requires_overflow():
    pool = ClassPromptPool(4, 3, 3)
    pool.append(random_prob(SeededRng(0), 3), np.zeros(3), 0)
    with pytest.raises(ValueError):
        mst_compact(pool)


@pytest.mark.parametrize("seed", range(12))
def test_mst_compact_matches_bruteforce_single_linkage(seed):
    rng = SeededRng(seed)
    n = int(rng.integers(4, 13))
    capacity = int(rng.integers(1, n))
    pool = random_class_pool(rng, n, capacity, 4, 3)
    keys = [key.copy() for key in pool.keys]
    clustering = mst_compact(pool)

    normed = np.stack(keys)
    normed = normed / np.linalg.norm(normed, axis=1, keepdims=True)
    dist = 1.0 - normed @ normed.T
    expected = single_linkage_bruteforce(dist, capacity)
    assert partition_sets(clustering.assignment) == partition_sets(expected)


def test_fuse_nearest_pair_identical_entries_win():
    pool = DomainPromptPool(10, 2, 2)
    mus = [[0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]]
    for i, mu in enumerate(mus):
        pool.append(BatchStats(np.array(mu), np.zeros(2)).concat(), np.full(2, float(i)), i)
    pair = fuse_nearest_pair(pool)
    assert pair == (1, 2)
    assert len(pool) == 3
    np.testing.assert_array_equal(pool.keys[1, :2], [5.0, 5.0])
    np.testing.assert_allclose(pool.prompts[1], [1.5, 1.5], atol=1e-15)


def test_fuse_pool_of_two_averages():
    pool = DomainPromptPool(10, 2, 2)
    pool.append(BatchStats(np.array([0.0, 0.0]), np.array([1.0, 1.0])).concat(), np.array([2.0, 0.0]), 0)
    pool.append(BatchStats(np.array([4.0, 0.0]), np.array([3.0, 1.0])).concat(), np.array([0.0, 2.0]), 5)
    pair = fuse_nearest_pair(pool)
    assert pair == (0, 1)
    mu, sigma, prompt, created = domain_pool_tuples(pool)[0]
    np.testing.assert_allclose(mu, [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sigma, [2.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(prompt, [1.0, 1.0], atol=1e-15)
    assert created == 0

    with pytest.raises(ValueError):
        fuse_nearest_pair(pool)


@pytest.mark.parametrize("seed", range(8))
def test_fuse_nearest_pair_matches_exhaustive_scan(seed):
    rng = SeededRng(seed)
    pool = random_domain_pool(rng, 6, 10, 3, 2)
    keys = pool.keys.copy()
    best = None
    for i in range(6):
        for j in range(i + 1, 6):
            d = float(np.linalg.norm(keys[i] - keys[j]))
            if best is None or d < best[0]:
                best = (d, i, j)
    assert fuse_nearest_pair(pool) == best[1:]


def test_domain_update_examples():
    rng = SeededRng(4)
    pool = random_domain_pool(rng, 2, 5, 3, 4)
    rec = random_domain_record(rng, pool, fission_prob=1.0)
    summary = update_domain_pool(pool, rec, 0.1, created_at=3)
    assert summary.fissioned and summary.appended_index == 2
    assert summary.fused_pair is None and len(pool) == 3

    # sole candidate with weight 1 and alpha_d 0: prompt replaced, key untouched
    pool2 = random_domain_pool(rng, 1, 5, 3, 4)
    old_key = pool2.keys[0].copy()
    learned = rng.normal(size=4)
    rec2 = DomainUpdateRecord(
        learned,
        BatchStats(rng.normal(size=3), np.abs(rng.normal(size=3))),
        FissionOutcome(learned, {0: 1.0}, False, pool2.version),
    )
    update_domain_pool(pool2, rec2, 0.0)
    np.testing.assert_array_equal(pool2.prompts[0], learned)
    np.testing.assert_array_equal(pool2.keys[0, :3], old_key[:3])
    np.testing.assert_array_equal(pool2.keys[0, 3:], old_key[3:])


def test_domain_update_hand_simulation():
    pool = DomainPromptPool(5, 2, 2)
    pool.append(BatchStats(np.array([1.0, 1.0]), np.array([2.0, 2.0])).concat(), np.array([1.0, 0.0]), 0)
    rec = DomainUpdateRecord(
        np.array([3.0, 4.0]),
        BatchStats(np.array([2.0, 0.0]), np.array([4.0, 0.0])),
        FissionOutcome(np.array([3.0, 4.0]), {0: 0.5}, False, pool.version),
    )
    update_domain_pool(pool, rec, 0.1)
    # coeff = 0.05: mu <- .05*[2,0]+.95*[1,1] = [1.05,.95]; sigma <- .05*[4,0]+.95*[2,2]=[2.1,1.9]
    # prompt <- .5*[3,4]+.5*[1,0] = [2,2]
    mu, sigma, prompt, _ = domain_pool_tuples(pool)[0]
    np.testing.assert_allclose(mu, [1.05, 0.95], atol=1e-15)
    np.testing.assert_allclose(sigma, [2.1, 1.9], atol=1e-15)
    np.testing.assert_allclose(prompt, [2.0, 2.0], atol=1e-15)


def test_fission_overflow_triggers_single_fuse():
    rng = SeededRng(5)
    pool = random_domain_pool(rng, 3, 3, 3, 4)
    rec = random_domain_record(rng, pool, fission_prob=1.0)
    summary = update_domain_pool(pool, rec, 0.1)
    assert summary.fissioned and summary.fused_pair is not None
    assert len(pool) == 3


@pytest.mark.parametrize("seed", range(10))
def test_update_class_pool_bitwise_matches_interpreter(seed):
    rng = SeededRng(100 + seed)
    n = int(rng.integers(0, 8))
    capacity = int(rng.integers(max(1, n - 2), n + 6))
    pool = random_class_pool(rng, n, capacity, 3, 4)
    records = random_class_records(rng, pool, int(rng.integers(1, 9)), fission_prob=0.4)
    gamma_h = float(rng.uniform(0.0, np.log(3)))
    alpha_c = float(rng.uniform(0.0, 1.0))
    expected = algorithm1_reference(class_pool_tuples(pool), capacity, records, gamma_h, alpha_c, 5)
    update_class_pool(pool, records, gamma_h, alpha_c, created_at=5)
    assert len(pool) == len(expected)
    for got_key, got_prompt, got_created, (key, prompt, created) in zip(
        pool.keys, pool.prompts, pool.created_at, expected
    ):
        assert got_key.tobytes() == key.tobytes()
        assert got_prompt.tobytes() == prompt.tobytes()
        assert got_created == created


@pytest.mark.parametrize("seed", range(10))
def test_update_domain_pool_bitwise_matches_interpreter(seed):
    rng = SeededRng(200 + seed)
    n = int(rng.integers(0, 6))
    capacity = int(rng.integers(max(1, n - 1), n + 3))
    pool = random_domain_pool(rng, n, capacity, 3, 4)
    record = random_domain_record(rng, pool, fission_prob=0.5)
    expected = algorithm2_reference(domain_pool_tuples(pool), capacity, record, 0.1, 5)
    update_domain_pool(pool, record, 0.1, created_at=5)
    assert len(pool) == len(expected)
    for got, (mu, sigma, prompt, created) in zip(domain_pool_tuples(pool), expected):
        got_mu, got_sigma, got_prompt, got_created = got
        assert got_mu.tobytes() == mu.tobytes()
        assert got_sigma.tobytes() == sigma.tobytes()
        assert got_prompt.tobytes() == prompt.tobytes()
        assert got_created == created


def test_averaged_mode_blends_against_batch_start_state():
    pool = ClassPromptPool(10, 2, 2)
    pool.append(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0)
    p1 = np.array([3.0, 0.0])
    p2 = np.array([0.0, 3.0])
    recs = [
        matched_record(pool, p1, onehot(0, 2), onehot(0, 2), {0: 1.0}),
        matched_record(pool, p2, onehot(1, 2), onehot(1, 2), {0: 1.0}),
    ]
    update_class_pool(pool, recs, 10.0, 0.0, mode="averaged")
    # both samples blend against the original prompt [1,1]:
    # mean of (1.0*p1 + 0.0*[1,1]) and (1.0*p2 + 0.0*[1,1]) = [1.5, 1.5]
    np.testing.assert_allclose(pool.prompts[0], [1.5, 1.5], atol=1e-15)


def test_capacity_invariants_after_updates():
    rng = SeededRng(6)
    pool = random_class_pool(rng, 5, 5, 3, 4)
    records = random_class_records(rng, pool, 8, fission_prob=0.9)
    summary = update_class_pool(pool, records, 10.0, 0.1)
    assert len(pool) <= pool.capacity
    if summary.compaction is not None:
        assert summary.compaction.num_groups == pool.capacity

    dpool = random_domain_pool(rng, 3, 3, 3, 4)
    for _ in range(4):
        rec = random_domain_record(rng, dpool, fission_prob=1.0)
        update_domain_pool(dpool, rec, 0.1)
        assert len(dpool) <= dpool.capacity
