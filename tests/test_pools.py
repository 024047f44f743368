import json
import re
from dataclasses import MISSING, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctta.numerics import BatchStats, Hyperparams, SeededRng
from ctta.pools import (
    ClassPromptPool,
    DomainPromptPool,
    FissionOutcome,
    fission_class_batch,
    fission_domain,
)
from instancegen import domain_pool_tuples, load_pool, random_class_pool, random_domain_pool, random_prob
from reference import class_fission_reference, cosine_sim, domain_fission_reference

DIM = 5
C = 3
# the matching constants most tests below use
HP = Hyperparams(gamma_c=0.005, tau_c=1.0, gamma_d=25.0, tau_d=3.0, init_scale=0.01)


def prob(vals):
    v = np.asarray(vals, dtype=float)
    return v / v.sum()


def make_class_pool(keys, capacity=10):
    rows = [(prob(k), np.full(DIM, float(i)), i) for i, k in enumerate(keys)]
    return load_pool(ClassPromptPool(capacity, DIM, C), rows)


def make_domain_pool(mus, capacity=10, feature_dim=4):
    rows = [
        (BatchStats(np.asarray(mu, float), np.ones(feature_dim)).concat(), np.full(DIM, float(i)), i)
        for i, mu in enumerate(mus)
    ]
    return load_pool(DomainPromptPool(capacity, DIM, feature_dim), rows)


def pool_bytes(pool):
    # a domain key row is mu followed by sigma, so one layout serves both pools
    return b"".join(k.tobytes() + p.tobytes() for k, p in zip(pool.keys, pool.prompts))


def test_fission_class_empty_pool_fissions():
    pool = ClassPromptPool(10, DIM, C)
    out = fission_class_batch(pool, [prob([1, 1, 1])], HP, SeededRng(0))
    assert out.fissioned and out.candidates.size == 0 and out.weights.size == 0
    assert out.composed.shape == (1, DIM)
    assert np.abs(out.composed[0]).max() < 0.1


def test_fission_class_equal_similarity_splits_weight():
    # two keys symmetric around the query get exactly half each
    pool = make_class_pool([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]])
    query = prob([0.4, 0.4, 0.2])
    out = fission_class_batch(pool, [query], HP, SeededRng(0))
    assert not out.fissioned
    np.testing.assert_array_equal(out.candidates, [0, 1])
    assert out.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.5, abs=1e-12)


def test_fission_class_sole_exact_match_takes_all_weight():
    key = prob([0.7, 0.2, 0.1])
    pool = make_class_pool([key])
    out = fission_class_batch(pool, [key.copy()], HP, SeededRng(0))
    np.testing.assert_array_equal(out.candidates, [0])
    np.testing.assert_array_equal(out.weights, [1.0])
    np.testing.assert_array_equal(out.composed[0], pool.prompts[0])


def test_fission_class_near_orthogonal_key_excluded():
    pool = make_class_pool([[0.7, 0.2, 0.1], [0.002, 0.002, 0.996]])
    query = prob([0.999996, 2e-6, 2e-6])
    sims = [cosine_sim(query, key) for key in pool.keys]
    assert sims[0] > 0.005 > sims[1]
    out = fission_class_batch(pool, [query], HP, SeededRng(0))
    np.testing.assert_array_equal(out.candidates, [0])
    assert out.weights[0] == 1.0


def test_fission_class_batch_equals_elementwise_calls():
    pool = make_class_pool([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1]])
    labels = [prob([5, 1, 1]), prob([1, 9, 1]), prob([1, 1, 1]), prob([1e-9, 1e-9, 1.0])]
    b = len(labels)
    hp = replace(HP, gamma_c=0.4)
    batch = fission_class_batch(pool, labels, hp, SeededRng(42))
    solo_rng = SeededRng(42)
    solo = [fission_class_batch(pool, [label], hp, solo_rng) for label in labels]
    assert len(batch) == b
    assert batch.fissioned.tolist() == [want.fissioned[0] for want in solo]
    assert batch.fissioned.any() and not batch.fissioned.all()
    for t, want in enumerate(solo):
        for got in (batch[t], batch[t - b]):
            assert len(got) == 1
            assert got.offsets.tolist() == want.offsets.tolist()
            assert got.candidates.tobytes() == want.candidates.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.composed.tobytes() == want.composed.tobytes()
            assert got.pool_version == want.pool_version
    with pytest.raises(IndexError):
        batch[b]
    assert len(list(batch)) == b


def test_fission_class_identical_samples_identical_outcomes():
    pool = make_class_pool([[0.6, 0.2, 0.2]])
    labels = [prob([2, 1, 1])] * 3
    outs = fission_class_batch(pool, labels, HP, SeededRng(0))
    for o in list(outs)[1:]:
        np.testing.assert_array_equal(o.candidates, outs[0].candidates)
        np.testing.assert_array_equal(o.weights, outs[0].weights)
        np.testing.assert_array_equal(o.composed[0], outs[0].composed[0])


def test_fission_class_batch_against_empty_pool_all_fission():
    pool = ClassPromptPool(10, DIM, C)
    outs = fission_class_batch(pool, [prob([1, 2, 3]) for _ in range(4)], HP, SeededRng(1))
    assert all(o.fissioned for o in outs)


def test_fission_class_validates_inputs():
    pool = make_class_pool([[0.6, 0.2, 0.2]])
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        fission_class_batch(pool, [[0.5, 0.6, 0.2]], HP, rng)  # not a distribution
    # labels are a (b, C) matrix, also when there are none
    with pytest.raises(ValueError, match=r"^pseudo_label must be 2-d, got shape \(0,\)$"):
        fission_class_batch(pool, [], HP, rng)
    assert len(fission_class_batch(pool, np.empty((0, C)), HP, rng)) == 0
    # the matching constants are checked once, when Hyperparams is built
    with pytest.raises(ValueError, match="gamma_c"):
        Hyperparams(gamma_c=1.5)  # out of range
    with pytest.raises(ValueError, match="tau_c"):
        Hyperparams(tau_c=0.0)  # <= 0


def test_fission_domain_exact_key_gets_largest_weight():
    pool = make_domain_pool([[0, 0, 0, 0], [3, 3, 3, 3]])
    query = BatchStats(np.zeros(4), np.ones(4))
    out = fission_domain(pool, query, HP, SeededRng(0))
    assert not out.fissioned
    assert out.candidates[0] == 0
    assert out.weights[0] == out.weights.max()


def test_fission_domain_empty_pool_fissions():
    pool = DomainPromptPool(10, DIM, 4)
    out = fission_domain(pool, BatchStats(np.zeros(4), np.ones(4)), HP, SeededRng(0))
    assert out.fissioned


def test_fission_domain_equidistant_pair_splits_weight():
    pool = make_domain_pool([[1, 0, 0, 0], [-1, 0, 0, 0]])
    query = BatchStats(np.zeros(4), np.ones(4))
    out = fission_domain(pool, query, replace(HP, gamma_d=5.0), SeededRng(0))
    assert out.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.5, abs=1e-12)


def test_fission_domain_tight_threshold_never_mixes_separated_keys():
    pool = make_domain_pool([[0, 0, 0, 0], [10, 0, 0, 0]])
    query = BatchStats(np.array([0.5, 0.0, 0.0, 0.0]), np.ones(4))
    out = fission_domain(pool, query, replace(HP, gamma_d=2.0), SeededRng(0))
    np.testing.assert_array_equal(out.candidates, [0])


def test_fission_domain_validates_inputs():
    pool = make_domain_pool([[0, 0, 0, 0]])
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        fission_domain(pool, BatchStats(np.zeros(3), np.ones(3)), HP, rng)
    with pytest.raises(ValueError, match="gamma_d"):
        Hyperparams(gamma_d=-1.0)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_fission_weights_are_convex_and_composition_bounded(seed, n_entries):
    rng = SeededRng(seed)
    keys = [rng.uniform(0.05, 1.0, size=C) for _ in range(n_entries)]
    pool = make_class_pool(keys)
    query = prob(rng.uniform(0.05, 1.0, size=C))
    out = fission_class_batch(pool, [query], HP, rng)
    if out.fissioned:
        return
    w = out.weights
    assert np.all(w > 0) and np.all(w <= 1.0)
    assert abs(w.sum() - 1.0) <= 1e-9
    cand_prompts = pool.prompts[out.candidates]
    assert np.all(out.composed[0] >= cand_prompts.min(axis=0) - 1e-12)
    assert np.all(out.composed[0] <= cand_prompts.max(axis=0) + 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_fission_is_read_only(seed):
    rng = SeededRng(seed)
    pool = make_class_pool([rng.uniform(0.05, 1.0, size=C) for _ in range(4)])
    dpool = make_domain_pool([rng.normal(size=4) for _ in range(4)])
    before_c, before_d = pool_bytes(pool), pool_bytes(dpool)
    vc, vd = pool.version, dpool.version
    fission_class_batch(pool, [prob(rng.uniform(0.05, 1.0, size=C))], HP, rng)
    stats = BatchStats(rng.normal(size=4), np.ones(4))
    fission_domain(dpool, stats, replace(HP, gamma_d=4.0), rng)
    assert pool_bytes(pool) == before_c and pool.version == vc
    assert pool_bytes(dpool) == before_d and dpool.version == vd


def test_fission_outcome_flag_consistency():
    # the flags are derived from the offsets, so they cannot disagree with the candidates
    assert FissionOutcome(np.zeros((1, 3)), np.array([0, 0]), np.empty(0, np.int64), np.empty(0)).fissioned
    assert not FissionOutcome(np.zeros((1, 3)), np.array([0, 1]), np.array([0]), np.array([1.0])).fissioned
    two = FissionOutcome(np.zeros((2, 3)), np.array([0, 1, 1]), np.array([0]), np.array([1.0]))
    assert two.fissioned.tolist() == [False, True]


def test_pool_snapshots_round_trip_bit_exactly(tmp_path):
    rng = SeededRng(9)
    cpool = make_class_pool([rng.uniform(0.05, 1.0, size=C) for _ in range(3)])
    dpool = make_domain_pool([rng.normal(size=4) for _ in range(2)])
    empty = (ClassPromptPool(10, DIM, C), DomainPromptPool(10, DIM, 4))
    for pool, cls in zip((cpool, dpool, *empty), (ClassPromptPool, DomainPromptPool) * 2):
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
    with pytest.raises(ValueError):
        ClassPromptPool.from_dict(class_snapshot(key, np.zeros(DIM)))


def test_domain_pool_rejects_bad_keys_at_its_input_boundary():
    negative_sigma = np.array([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(4), negative_sigma, np.zeros(DIM)))
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(3), np.ones(3), np.zeros(DIM)))


def test_pools_reject_prompts_of_the_wrong_dimension():
    with pytest.raises(ValueError):
        ClassPromptPool.from_dict(class_snapshot(prob([1, 1, 1]), np.zeros(DIM + 1)))
    with pytest.raises(ValueError):
        DomainPromptPool.from_dict(domain_snapshot(np.zeros(4), np.ones(4), np.zeros(DIM + 1)))


@pytest.mark.parametrize("cls", [ClassPromptPool, DomainPromptPool])
@pytest.mark.parametrize(
    "field, value, named",
    [
        ("capacity", 2, "entries"),  # the snapshot has three
        ("version", "abc", "version"),
        ("version", -1, "version"),
        ("created_at", 2.5, "created_at"),
        ("created_at", True, "created_at"),
        ("created_at", 2**63, "created_at"),  # past int64
        ("prompt_dim", 2.5, "prompt_dim"),
        ("prompt_dim", "3", "prompt_dim"),
        # ragged: one entry's row shorter than the others'. 0 and -1 index the
        # pool's key fields: a class key, or a domain key's mu and its sigma
        ("prompt", [1.0], "prompt"),
        (0, [1.0], 0),
        (-1, [1.0], -1),
        # an entry without the field: a class prompt or key, a domain
        # prompt, mu or sigma, or either pool's counter; the whole message
        # names the entry and the field
        ("prompt", MISSING, "prompt"),
        (0, MISSING, 0),
        (-1, MISSING, -1),
        ("created_at", MISSING, "created_at"),
    ],
)
def test_pool_snapshots_reject_malformed_fields_by_name(cls, field, value, named):
    if cls is ClassPromptPool:
        doc = make_class_pool([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [1, 1, 1]]).to_dict()
    else:
        doc = make_domain_pool([[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]]).to_dict()
    cls.from_dict(doc)
    if isinstance(field, int):  # an index into the pool's key fields
        field = named = cls.KEY_FIELDS[field]
    entry = doc["entries"][1]
    expected = f"^{named} "
    if value is MISSING:
        del entry[field]
        expected = re.escape(f"missing entry 1 keys: [{field!r}]") + "$"
    else:
        (entry if field in entry else doc)[field] = value
    with pytest.raises(ValueError, match=expected):
        cls.from_dict(doc)


def _set(doc, value, *path):
    """``doc`` with the item at ``path`` set to ``value``, or removed if MISSING."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return doc


# each of these raised KeyError, TypeError or AttributeError, or loaded
_MALFORMED_SNAPSHOTS = {
    "no-capacity": (lambda d: _set(d, MISSING, "capacity"), "missing snapshot keys: ['capacity']"),
    "no-entries": (lambda d: _set(d, MISSING, "entries"), "missing snapshot keys: ['entries']"),
    "no-version": (lambda d: _set(d, MISSING, "version"), "missing snapshot keys: ['version']"),
    "entries-int": (lambda d: _set(d, 3, "entries"), "entries must be a JSON array, got 3"),
    "entry-int": (lambda d: _set(d, 3, "entries", 1), "entry 1 must be a JSON object"),
    "list-document": (lambda d: [d], None),  # None: the wrong-kind message
    "unknown-key": (lambda d: _set(d, 1, "junk"), "unknown snapshot keys: ['junk']"),
    "unknown-entry-key": (lambda d: _set(d, 1, "entries", 1, "junk"), "unknown entry 1 keys: ['junk']"),
    "dict-in-row": (
        lambda d: _set(d, {}, "entries", 1, "prompt", 0),
        "prompt must be an array of numbers: float() argument must be a string or a real number, not 'dict'",
    ),
}


@pytest.mark.parametrize("cls", [ClassPromptPool, DomainPromptPool])
@pytest.mark.parametrize("case", sorted(_MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_documents_fail_by_name(cls, case):
    if cls is ClassPromptPool:
        doc = make_class_pool([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]]).to_dict()
    else:
        doc = make_domain_pool([[0, 0, 0, 0], [1, 0, 0, 0]]).to_dict()
    edit, message = _MALFORMED_SNAPSHOTS[case]
    with pytest.raises(ValueError) as exc:
        cls.from_dict(edit(doc))
    assert str(exc.value) == (message or f"snapshot is not a {cls.KIND} pool")


@pytest.mark.parametrize("cls", [ClassPromptPool, DomainPromptPool])
@pytest.mark.parametrize("field, item", [("prompt", True), ("key", "0.5")], ids=["prompt-true", "key-str"])
def test_snapshot_rows_take_numbers_by_the_scalars_rule(cls, field, item):
    # numpy read each of these as the number it replaces (1.0 and 0.5), so
    # the snapshot loaded; check_param refuses a bool or string scalar
    if cls is ClassPromptPool:
        doc = make_class_pool([[1, 0, 0], [0, 1, 1]]).to_dict()  # entry 1's key: [0.0, 0.5, 0.5]
    else:
        doc = make_domain_pool([[0, 0, 0, 0], [0.5, 0, 0, 0]]).to_dict()
    field = cls.KEY_FIELDS[0] if field == "key" else field
    row = doc["entries"][1][field]
    row[row.index(1.0 if item is True else 0.5)] = item
    with pytest.raises(ValueError) as exc:
        cls.from_dict(doc)
    assert str(exc.value) == f"{field} must be an array of numbers, got {item!r}"


def test_fission_class_refuses_bool_pseudo_labels():
    # a bool one-hot matrix used to be read as 0.0 and 1.0
    pool = make_class_pool([[0.6, 0.2, 0.2]])
    labels = np.eye(C, dtype=bool)
    with pytest.raises(ValueError) as exc:
        fission_class_batch(pool, labels, HP, SeededRng(0))
    assert str(exc.value) == "pseudo_label must be an array of numbers, got dtype bool"


@pytest.mark.parametrize("cls", [ClassPromptPool, DomainPromptPool])
@pytest.mark.parametrize(
    "field, value",
    [("prompt_dim", 4.7), ("prompt_dim", True), ("prompt_dim", 0), ("width", 2.5), ("width", 0)],
)
def test_pool_constructors_reject_dimensions_as_the_loader_does(cls, field, value):
    # the constructor is the loader's check: a fractional or boolean
    # dimension used to be truncated, and a fractional width to fail inside numpy
    field = cls.WIDTH if field == "width" else field
    dims = {"prompt_dim": DIM, cls.WIDTH: C, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be Integral in \\[1, inf\\], got ") as built:
        cls(10, dims["prompt_dim"], dims[cls.WIDTH])
    doc = cls(10, DIM, C).to_dict()
    doc[field] = value
    with pytest.raises(ValueError) as loaded:
        cls.from_dict(doc)
    assert str(loaded.value) == str(built.value)


def test_pool_dimensions_are_plain_ints():
    # the snapshot writer lays out exact ints only
    for cls in (ClassPromptPool, DomainPromptPool):
        pool = cls(np.int64(10), np.int64(DIM), np.int64(C))
        doc = pool.to_dict()
        assert {type(doc[k]) for k in ("capacity", "prompt_dim", pool.WIDTH)} == {int}
        assert pool.keys.shape == (0, getattr(pool, pool.WIDTH) * len(pool.KEY_FIELDS))


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


# sharp: tau_c = 0.001 makes the candidate weights near one-hot; seeds 1 and 2
# then give some weights below 1e-35
@pytest.mark.parametrize("sharp", [False, True])
@pytest.mark.parametrize("seed", range(9))
def test_fission_class_batch_bitwise_matches_literal_reference(seed, sharp):
    rng = SeededRng(300 + seed)
    if seed < 8:
        n = 0 if seed == 0 else int(rng.integers(1, 41))
        num_classes = int(rng.integers(2, 8))
        pool = random_class_pool(rng, n, 50, num_classes, 6)
        labels = np.stack([random_prob(rng, num_classes) for _ in range(int(rng.integers(1, 33)))])
        gamma_c = float(rng.uniform(0.9, 0.99))  # several seeds mix misses and matches
    else:
        # one, two and three copies of three separated keys: queried in
        # interleaved order, the rows fall into groups of 1, 2 and 3 candidates
        peaks = [prob([8, 1, 1, 1]), prob([1, 8, 1, 1]), prob([1, 1, 8, 1])]
        rows = [(peaks[i], rng.normal(size=6), j) for j, i in enumerate([0, 1, 1, 2, 2, 2])]
        n, num_classes, gamma_c = 6, 4, 0.95
        pool = load_pool(ClassPromptPool(50, 6, num_classes), rows)
        labels = np.stack([peaks[2], prob([1, 1, 1, 1]), peaks[0], peaks[1], peaks[2], peaks[0]])
    engine_rng, reference_rng = SeededRng(seed), SeededRng(seed)
    tau_c = 0.001 if sharp else 0.3
    got = fission_class_batch(pool, labels, replace(HP, gamma_c=gamma_c, tau_c=tau_c), engine_rng)
    want = class_fission_reference(pool.keys, pool.prompts, labels, gamma_c, tau_c, reference_rng, 0.01)
    assert len(got) == len(want)
    for out, (cand, w, composed) in zip(got, want):
        assert out.candidates.dtype == np.int64
        assert out.candidates.tolist() == cand
        assert out.fissioned == (not cand)
        assert out.weights.tobytes() == w.tobytes()
        assert out.composed[0].tobytes() == composed.tobytes()
        assert out.pool_version == pool.version
    # both sides drew the same fresh prompts, so their generators agree afterwards
    assert engine_rng.normal(size=4).tobytes() == reference_rng.normal(size=4).tobytes()
    if n > 0:
        # the threshold splits the pool: some sample matches part of it
        assert any(0 < len(cand) < n for cand, _, _ in want)
    if seed == 8:
        assert [len(cand) for cand, _, _ in want] == [3, 0, 1, 2, 3, 1]


# sharp: tau_d = 0.001 puts nearly all weight on the nearest candidate;
# flat: tau_d = 1000 weighs the candidates nearly evenly
@pytest.mark.parametrize("sharp", [False, True])
@pytest.mark.parametrize("case", ["empty", "all match", "no match", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_fission_domain_bitwise_matches_literal_reference(seed, case, sharp):
    rng = SeededRng(500 + seed)
    n = 0 if case == "empty" else int(rng.integers(2, 21))
    feature_dim = int(rng.integers(1, 9))
    pool = random_domain_pool(rng, n, 30, feature_dim, 6)
    stats = BatchStats(rng.normal(size=feature_dim), np.abs(rng.normal(size=feature_dim)))
    dists = np.sort(np.linalg.norm(pool.keys - stats.concat(), axis=1))
    if case == "all match":
        gamma_d = np.inf
    elif case == "no match":
        gamma_d = dists[0] / 2
    elif case == "mixed":  # between the two middle distances
        gamma_d = (dists[n // 2 - 1] + dists[n // 2]) / 2
    else:
        gamma_d = 1.0
    tau_d = 0.001 if sharp else 1000.0
    engine_rng, reference_rng = SeededRng(seed), SeededRng(seed)
    got = fission_domain(pool, stats, replace(HP, gamma_d=gamma_d, tau_d=tau_d), engine_rng)
    cand, w, composed = domain_fission_reference(
        domain_pool_tuples(pool), stats, pool.prompt_dim, gamma_d, tau_d, reference_rng, HP.init_scale
    )
    assert len(got) == 1 and got.pool_version == pool.version
    assert got.candidates.tolist() == cand
    assert got.fissioned[0] == (not cand)
    assert got.weights.tobytes() == w.tobytes()
    assert got.composed[0].tobytes() == composed.tobytes()
    # both sides drew the same fresh prompts, if any, so their generators agree afterwards
    assert engine_rng._gen.bit_generator.state == reference_rng._gen.bit_generator.state
    assert len(cand) == {"empty": 0, "all match": n, "no match": 0, "mixed": n // 2}[case]


def test_fission_domain_key_at_exactly_gamma_d_is_not_a_candidate():
    # a 3-4-5 offset puts entry 0 at distance exactly 5.0 from the batch key;
    # matching is strictly below gamma_d, so gamma_d = 5.0 leaves it out and
    # the batch fissions, while gamma_d just above 5.0 takes it
    pool = make_domain_pool([[0, 0, 0, 0], [30, 40, 0, 0]])
    query = BatchStats(np.array([3.0, 4.0, 0.0, 0.0]), np.ones(4))
    assert (np.linalg.norm(pool.keys - query.concat(), axis=1) == [5.0, 45.0]).all()
    out = fission_domain(pool, query, replace(HP, gamma_d=5.0), SeededRng(0))
    assert out.fissioned and out.candidates.size == 0
    out = fission_domain(pool, query, replace(HP, gamma_d=np.nextafter(5.0, 6.0)), SeededRng(0))
    assert not out.fissioned and out.candidates.tolist() == [0]


def test_fission_class_key_at_exactly_gamma_c_is_not_a_candidate():
    # gamma_c is set to the cosine the engine computes for entry 0: matching
    # is strictly above it, so entry 0 drops out and only the identical key 1
    # (cosine 1) is a candidate
    keys = np.array([prob([1, 1, 0]), prob([1, 0, 1])])
    pool = make_class_pool(keys)
    query = keys[1].copy()
    sims = (pool.keys @ query) / (np.linalg.norm(pool.keys, axis=1) * np.sqrt(query @ query))
    gamma_c = float(sims[0])
    out = fission_class_batch(pool, [query], replace(HP, gamma_c=gamma_c), SeededRng(0))
    assert not out.fissioned and out.candidates.tolist() == [1]
    out = fission_class_batch(pool, [query], replace(HP, gamma_c=np.nextafter(gamma_c, 0.0)), SeededRng(0))
    assert out.candidates.tolist() == [0, 1]
