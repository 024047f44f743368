import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctta.numerics import BatchStats, SeededRng, cosine_sim
from ctta.pools import (
    ClassPromptPool,
    DomainPromptPool,
    FissionOutcome,
    fission_class,
    fission_class_batch,
    fission_domain,
)

DIM = 5
C = 3


def prob(vals):
    v = np.asarray(vals, dtype=float)
    return v / v.sum()


def make_class_pool(keys, capacity=10):
    pool = ClassPromptPool(capacity, DIM, C)
    for i, k in enumerate(keys):
        pool.append(prob(k), np.full(DIM, float(i)), i)
    return pool


def make_domain_pool(mus, capacity=10, feature_dim=4):
    pool = DomainPromptPool(capacity, DIM, feature_dim)
    for i, mu in enumerate(mus):
        pool.append(
            BatchStats(np.asarray(mu, float), np.ones(feature_dim)).concat(),
            np.full(DIM, float(i)),
            i,
        )
    return pool


def pool_bytes(pool):
    # a domain key row is mu followed by sigma, so one layout serves both pools
    return b"".join(k.tobytes() + p.tobytes() for k, p in zip(pool.keys, pool.prompts))


def test_fission_class_empty_pool_fissions():
    pool = ClassPromptPool(10, DIM, C)
    out = fission_class(pool, prob([1, 1, 1]), 0.005, 1.0, SeededRng(0), 0.01)
    assert out.fissioned and out.weights is None
    assert out.composed_prompt.shape == (DIM,)
    assert np.abs(out.composed_prompt).max() < 0.1


def test_fission_class_equal_similarity_splits_weight():
    # two keys symmetric around the query get exactly half each
    pool = make_class_pool([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]])
    query = prob([0.4, 0.4, 0.2])
    out = fission_class(pool, query, 0.005, 1.0, SeededRng(0), 0.01)
    assert not out.fissioned
    assert set(out.weights) == {0, 1}
    assert out.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.5, abs=1e-12)


def test_fission_class_sole_exact_match_takes_all_weight():
    key = prob([0.7, 0.2, 0.1])
    pool = make_class_pool([key])
    out = fission_class(pool, key.copy(), 0.005, 1.0, SeededRng(0), 0.01)
    assert out.weights == {0: 1.0}
    np.testing.assert_array_equal(out.composed_prompt, pool.prompts[0])


def test_fission_class_near_orthogonal_key_excluded():
    pool = make_class_pool([[0.7, 0.2, 0.1], [0.002, 0.002, 0.996]])
    query = prob([0.999996, 2e-6, 2e-6])
    sims = [cosine_sim(query, key) for key in pool.keys]
    assert sims[0] > 0.005 > sims[1]
    out = fission_class(pool, query, 0.005, 1.0, SeededRng(0), 0.01)
    assert set(out.weights) == {0}
    assert out.weights[0] == 1.0


def test_fission_class_batch_equals_elementwise_calls():
    pool = make_class_pool([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1]])
    labels = [prob([5, 1, 1]), prob([1, 9, 1]), prob([1, 1, 1]), prob([1e-9, 1e-9, 1.0])]
    batch_out = fission_class_batch(pool, labels, 0.4, 1.0, SeededRng(42), 0.01)
    solo_rng = SeededRng(42)
    for got, label in zip(batch_out, labels):
        want = fission_class(pool, label, 0.4, 1.0, solo_rng, 0.01)
        assert got.fissioned == want.fissioned
        assert got.weights == want.weights
        np.testing.assert_array_equal(got.composed_prompt, want.composed_prompt)


def test_fission_class_identical_samples_identical_outcomes():
    pool = make_class_pool([[0.6, 0.2, 0.2]])
    labels = [prob([2, 1, 1])] * 3
    outs = fission_class_batch(pool, labels, 0.005, 1.0, SeededRng(0), 0.01)
    for o in outs[1:]:
        assert o.weights == outs[0].weights
        np.testing.assert_array_equal(o.composed_prompt, outs[0].composed_prompt)


def test_fission_class_batch_against_empty_pool_all_fission():
    pool = ClassPromptPool(10, DIM, C)
    outs = fission_class_batch(
        pool, [prob([1, 2, 3]) for _ in range(4)], 0.005, 1.0, SeededRng(1), 0.01
    )
    assert all(o.fissioned for o in outs)


def test_fission_class_validates_inputs():
    pool = make_class_pool([[0.6, 0.2, 0.2]])
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        fission_class(pool, [0.5, 0.6, 0.2], 0.005, 1.0, rng, 0.01)  # not a distribution
    with pytest.raises(ValueError):
        fission_class(pool, prob([1, 1, 1]), 1.5, 1.0, rng, 0.01)  # gamma_c out of range
    with pytest.raises(ValueError):
        fission_class(pool, prob([1, 1, 1]), 0.005, 0.0, rng, 0.01)  # tau_c <= 0


def test_fission_domain_exact_key_gets_largest_weight():
    pool = make_domain_pool([[0, 0, 0, 0], [3, 3, 3, 3]])
    query = BatchStats(np.zeros(4), np.ones(4))
    out = fission_domain(pool, query, 25.0, 3.0, SeededRng(0), 0.01)
    assert not out.fissioned
    assert out.weights[0] == max(out.weights.values())


def test_fission_domain_empty_pool_fissions():
    pool = DomainPromptPool(10, DIM, 4)
    out = fission_domain(pool, BatchStats(np.zeros(4), np.ones(4)), 25.0, 3.0, SeededRng(0), 0.01)
    assert out.fissioned


def test_fission_domain_equidistant_pair_splits_weight():
    pool = make_domain_pool([[1, 0, 0, 0], [-1, 0, 0, 0]])
    query = BatchStats(np.zeros(4), np.ones(4))
    out = fission_domain(pool, query, 5.0, 3.0, SeededRng(0), 0.01)
    assert out.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.5, abs=1e-12)


def test_fission_domain_tight_threshold_never_mixes_separated_keys():
    pool = make_domain_pool([[0, 0, 0, 0], [10, 0, 0, 0]])
    query = BatchStats(np.array([0.5, 0.0, 0.0, 0.0]), np.ones(4))
    out = fission_domain(pool, query, 2.0, 3.0, SeededRng(0), 0.01)
    assert set(out.weights) == {0}


def test_fission_domain_validates_inputs():
    pool = make_domain_pool([[0, 0, 0, 0]])
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        fission_domain(pool, BatchStats(np.zeros(3), np.ones(3)), 25.0, 3.0, rng, 0.01)
    with pytest.raises(ValueError):
        fission_domain(pool, BatchStats(np.zeros(4), np.ones(4)), -1.0, 3.0, rng, 0.01)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_fission_weights_are_convex_and_composition_bounded(seed, n_entries):
    rng = SeededRng(seed)
    keys = [rng.uniform(0.05, 1.0, size=C) for _ in range(n_entries)]
    pool = make_class_pool(keys)
    query = prob(rng.uniform(0.05, 1.0, size=C))
    out = fission_class(pool, query, 0.005, 1.0, rng, 0.01)
    if out.fissioned:
        return
    w = np.array(list(out.weights.values()))
    assert np.all(w > 0) and np.all(w <= 1.0)
    assert abs(w.sum() - 1.0) <= 1e-9
    cand_prompts = pool.prompts[list(out.weights)]
    assert np.all(out.composed_prompt >= cand_prompts.min(axis=0) - 1e-12)
    assert np.all(out.composed_prompt <= cand_prompts.max(axis=0) + 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_fission_is_read_only(seed):
    rng = SeededRng(seed)
    pool = make_class_pool([rng.uniform(0.05, 1.0, size=C) for _ in range(4)])
    dpool = make_domain_pool([rng.normal(size=4) for _ in range(4)])
    before_c, before_d = pool_bytes(pool), pool_bytes(dpool)
    vc, vd = pool.version, dpool.version
    fission_class(pool, prob(rng.uniform(0.05, 1.0, size=C)), 0.005, 1.0, rng, 0.01)
    fission_domain(dpool, BatchStats(rng.normal(size=4), np.ones(4)), 4.0, 3.0, rng, 0.01)
    assert pool_bytes(pool) == before_c and pool.version == vc
    assert pool_bytes(dpool) == before_d and dpool.version == vd


def test_softmax_over_all_weights_use_full_pool_denominator():
    pool = make_class_pool([[0.6, 0.2, 0.2], [0.002, 0.002, 0.996]])
    query = prob([0.999996, 2e-6, 2e-6])
    restricted = fission_class(pool, query, 0.005, 1.0, SeededRng(0), 0.01)
    full = fission_class(pool, query, 0.005, 1.0, SeededRng(0), 0.01, softmax_over_all=True)
    assert restricted.weights[0] == 1.0
    assert set(full.weights) == {0}
    assert 0.0 < full.weights[0] < 1.0  # non-candidate still contributes to the denominator


def test_fission_outcome_flag_consistency():
    with pytest.raises(ValueError):
        FissionOutcome(np.zeros(3), None, False)
    with pytest.raises(ValueError):
        FissionOutcome(np.zeros(3), {0: 1.0}, True)


def test_pool_snapshots_round_trip_bit_exactly(tmp_path):
    rng = SeededRng(9)
    cpool = make_class_pool([rng.uniform(0.05, 1.0, size=C) for _ in range(3)])
    dpool = make_domain_pool([rng.normal(size=4) for _ in range(2)])
    for pool, cls in ((cpool, ClassPromptPool), (dpool, DomainPromptPool)):
        path = tmp_path / "pool.json"
        with open(path, "w") as fh:
            json.dump(pool.to_dict(), fh)
        with open(path) as fh:
            restored = cls.from_dict(json.load(fh))
        assert pool_bytes(restored) == pool_bytes(pool)
        assert restored.version == pool.version
        assert restored.capacity == pool.capacity
        assert restored.created_at.tolist() == pool.created_at.tolist()


def class_snapshot(key, prompt):
    doc = ClassPromptPool(10, DIM, C).to_dict()
    doc["entries"] = [{"key": list(key), "prompt": list(prompt), "created_at": 0}]
    return doc


def domain_snapshot(mu, sigma, prompt, feature_dim=4):
    doc = DomainPromptPool(10, DIM, feature_dim).to_dict()
    doc["entries"] = [{"mu": list(mu), "sigma": list(sigma), "prompt": list(prompt), "created_at": 0}]
    return doc


@pytest.mark.parametrize(
    "key",
    [
        [-0.2, 0.6, 0.6],  # negative entry
        [0.5, 0.3, 0.1],  # sums to 0.9
        [0.5, 0.5],  # wrong length
        [0.5, np.nan, 0.5],  # non-finite
        [0.5, np.inf, 0.5],
    ],
)
def test_class_pool_rejects_bad_keys_at_its_input_boundary(key):
    pool = ClassPromptPool(10, DIM, C)
    with pytest.raises(ValueError):
        pool.append(key, np.zeros(DIM))
    assert len(pool) == 0 and pool.version == 0
    with pytest.raises(ValueError):
        ClassPromptPool.from_dict(class_snapshot(key, np.zeros(DIM)))


def test_domain_pool_rejects_bad_keys_at_its_input_boundary():
    pool = DomainPromptPool(10, DIM, 4)
    negative_sigma = np.array([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(ValueError):
        pool.append(np.concatenate((np.zeros(4), negative_sigma)), np.zeros(DIM))
    with pytest.raises(ValueError):
        pool.append(np.ones(6), np.zeros(DIM))  # wrong length
    assert len(pool) == 0 and pool.version == 0
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(4), negative_sigma, np.zeros(DIM)))
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(3), np.ones(3), np.zeros(DIM)))


def test_pools_reject_prompts_of_the_wrong_dimension():
    cpool = ClassPromptPool(10, DIM, C)
    dpool = DomainPromptPool(10, DIM, 4)
    with pytest.raises(ValueError):
        cpool.append(prob([1, 1, 1]), np.zeros(DIM + 1))
    with pytest.raises(ValueError):
        dpool.append(np.ones(8), np.zeros(DIM - 1))
    assert len(cpool) == len(dpool) == 0
    with pytest.raises(ValueError):
        ClassPromptPool.from_dict(class_snapshot(prob([1, 1, 1]), np.zeros(DIM + 1)))
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(4), np.ones(4), np.zeros(DIM + 1)))


def test_pool_snapshots_reject_the_wrong_kind():
    cdoc = make_class_pool([[0.6, 0.2, 0.2]]).to_dict()
    ddoc = make_domain_pool([[0, 0, 0, 0]]).to_dict()
    with pytest.raises(ValueError, match="not a domain pool"):
        DomainPromptPool.from_dict(cdoc)
    with pytest.raises(ValueError, match="not a class pool"):
        ClassPromptPool.from_dict(ddoc)
    # the matching kind still loads
    assert len(ClassPromptPool.from_dict(cdoc)) == 1
    assert len(DomainPromptPool.from_dict(ddoc)) == 1
