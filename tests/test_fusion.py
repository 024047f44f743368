from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctta import numerics
from ctta.fusion import (
    PoolVersionError,
    _compact_class_pool,
    _merge_groups,
    _single_linkage_groups,
    _update_order,
    update_class_pool,
    update_domain_pool,
)
from ctta.numerics import BatchStats, Hyperparams, SeededRng, upper_triangle
from ctta.pools import ClassPromptPool, DomainPromptPool, FissionOutcome
from instancegen import (
    block_class_records,
    chain_class_records,
    class_pool_tuples,
    class_record,
    domain_pool_tuples,
    load_pool,
    make_outcome,
    random_class_pool,
    random_class_records,
    random_domain_pool,
    random_domain_record,
    random_prob,
    sparse_class_records,
    stack_class_records,
    stack_outcomes,
)
from reference import (
    _sequential_mean,
    algorithm1_reference,
    algorithm2_reference,
    entropy,
    kruskal_single_linkage_reference,
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
    outcome = make_outcome(prompt, weights, pool.version)
    return class_record(prompt, prediction, pseudo, outcome)


def test_gate_skips_everything_bitwise():
    rng = SeededRng(0)
    pool = random_class_pool(rng, 4, 10, 3, 5)
    before = class_pool_bytes(pool)
    # uniform predictions have entropy ln 3 > 0.5
    records = stack_class_records(
        [
            matched_record(pool, rng.normal(size=5), np.full(3, 1 / 3), random_prob(rng, 3), {0: 1.0})
            for _ in range(3)
        ]
    )
    summary = update_class_pool(pool, records, Hyperparams(gamma_h=0.5, alpha_c=0.1))
    assert summary.skipped == [0, 1, 2]
    assert class_pool_bytes(pool) == before
    assert len(pool) == 4


def test_sole_candidate_full_weight_replaces_prompt_keeps_key():
    key = random_prob(SeededRng(1), 3)
    pool = load_pool(ClassPromptPool(10, 4, 3), [(key, np.zeros(4), 0)])
    learned = np.array([1.0, 2.0, 3.0, 4.0])
    rec = matched_record(pool, learned, onehot(0), onehot(0), {0: 1.0})
    # alpha_c = 0 freezes the key
    update_class_pool(pool, rec, Hyperparams(gamma_h=10.0, alpha_c=0.0))
    np.testing.assert_array_equal(pool.prompts[0], learned)
    np.testing.assert_array_equal(pool.keys[0], key)


def test_fissioned_record_appends_pseudo_label_key():
    pool = ClassPromptPool(10, 4, 3)
    pseudo = random_prob(SeededRng(2), 3)
    outcome = make_outcome(np.ones(4), None, pool.version)
    rec = class_record(np.ones(4), onehot(1), pseudo, outcome)
    summary = update_class_pool(pool, rec, Hyperparams(gamma_h=10.0, alpha_c=0.1), created_at=7)
    assert summary.appended == [0]
    np.testing.assert_array_equal(pool.keys[0], pseudo)
    assert pool.created_at[0] == 7


def test_update_class_pool_matches_hand_simulation():
    # two-sample batch traced by hand through the sequential update
    pool = load_pool(ClassPromptPool(10, 2, 2), [([0.5, 0.5], [1.0, 0.0], 0)])
    alpha_c = 0.5
    p1 = np.array([2.0, 0.0])
    p2 = np.array([0.0, 4.0])
    yhat1 = np.array([1.0, 0.0])
    yhat2 = np.array([0.0, 1.0])
    recs = stack_class_records(
        [
            matched_record(pool, p1, yhat1, yhat1, {0: 1.0}),
            matched_record(pool, p2, yhat2, yhat2, {0: 0.5}),
        ]
    )
    update_class_pool(pool, recs, Hyperparams(gamma_h=10.0, alpha_c=alpha_c))
    # sample 1: key <- 0.5*[1,0] + 0.5*[.5,.5] = [.75,.25]; prompt <- [2,0]
    # sample 2: coeff 0.25: key <- 0.25*[0,1] + 0.75*[.75,.25] = [.5625,.4375]
    #           prompt <- 0.5*[0,4] + 0.5*[2,0] = [1,2]
    np.testing.assert_allclose(pool.keys[0], [0.5625, 0.4375], atol=1e-15)
    np.testing.assert_allclose(pool.prompts[0], [1.0, 2.0], atol=1e-15)


def test_update_rejects_stale_outcomes():
    rng = SeededRng(3)
    pool = random_class_pool(rng, 3, 10, 3, 5)
    recs = random_class_records(rng, pool, 2, fission_prob=0.0)
    pool.version += 1
    with pytest.raises(PoolVersionError):
        update_class_pool(pool, recs, Hyperparams(gamma_h=10.0, alpha_c=0.1))

    dpool = random_domain_pool(rng, 3, 10, 4, 5)
    rec = random_domain_record(rng, dpool, fission_prob=0.0)
    dpool.version += 1
    with pytest.raises(PoolVersionError):
        update_domain_pool(dpool, *rec, Hyperparams(alpha_d=0.1))


def test_update_rejects_outcomes_naming_missing_rows():
    rng = SeededRng(7)
    pool = random_class_pool(rng, 3, 10, 3, 5)
    before, version = class_pool_bytes(pool), pool.version
    rec = matched_record(pool, np.zeros(5), onehot(0), onehot(0), {0: 0.5, 3: 0.5})
    with pytest.raises(PoolVersionError, match="missing pool index 3"):
        update_class_pool(pool, rec, Hyperparams(gamma_h=10.0, alpha_c=0.1))
    assert class_pool_bytes(pool) == before and pool.version == version

    dpool = random_domain_pool(rng, 2, 10, 4, 5)
    rec = (
        np.zeros(5),
        BatchStats(np.zeros(4), np.ones(4)),
        make_outcome(np.zeros(5), {1: 0.5, 2: 0.5}, dpool.version),
    )
    with pytest.raises(PoolVersionError, match="missing pool index 2"):
        update_domain_pool(dpool, *rec, Hyperparams(alpha_d=0.1))


def first_offset_not_0(outcome):
    return replace(outcome, offsets=np.concatenate(([1], outcome.offsets[1:])))


def offsets_decrease(outcome):
    # the first row ends past the second; a one-row outcome cannot show this
    if len(outcome) < 2:
        return None
    offsets = outcome.offsets.copy()
    offsets[1] = offsets[2] + 1
    return replace(outcome, offsets=offsets)


def last_offset_short_of_candidates(outcome):
    return replace(outcome, offsets=np.concatenate((outcome.offsets[:-1], [outcome.offsets[-1] - 1])))


def composed_row_missing(outcome):
    return replace(outcome, composed=outcome.composed[1:])


def two_rows(outcome):
    # only a domain update requires one row
    return stack_outcomes([outcome, outcome]) if len(outcome) == 1 else None


@pytest.mark.parametrize(
    "candidates, weights, match",
    [
        ([0, 2, 1, 3], [0.4, 0.3, 0.2, 0.1], "strictly ascending"),  # spans 0..3 without gaps
        ([1, 1], [0.5, 0.5], "strictly ascending"),
        ([0, 1], [1.0], "aligned"),
        # Faults in the row layout rather than in one row: each edits
        # well-formed outcomes, three rows for the class pool and one for the
        # domain pool, and returns None where the fault cannot occur.
        pytest.param(first_offset_not_0, None, "offsets", id="offsets-not-from-0"),
        pytest.param(offsets_decrease, None, "offsets", id="offsets-decrease"),
        pytest.param(last_offset_short_of_candidates, None, "offsets", id="offsets-end-short"),
        pytest.param(composed_row_missing, None, "offsets", id="rows-unequal"),
        pytest.param(two_rows, None, "one-row", id="domain-two-rows"),
    ],
)
def test_update_rejects_malformed_outcomes(candidates, weights, match):
    rng = SeededRng(8)
    pool = random_class_pool(rng, 4, 10, 3, 5)
    dpool = random_domain_pool(rng, 4, 10, 4, 5)
    before, version = class_pool_bytes(pool), pool.version
    dbefore, dversion = class_pool_bytes(dpool), dpool.version
    good = matched_record(pool, np.zeros(5), onehot(0), onehot(0), {0: 0.5, 1: 0.5})
    if weights is None:
        record = stack_class_records([good, good, good])
        class_outcome = candidates(record.outcome)
        domain_outcome = candidates(make_outcome(np.zeros(5), {0: 0.5, 1: 0.5}, dpool.version))
    else:
        bad = FissionOutcome(
            np.zeros((1, 5)),
            np.array([0, len(candidates)]),
            np.array(candidates),
            np.array(weights),
            pool.version,
        )
        # the well-formed rows on either side must not mask the malformed one
        record = stack_class_records([good, class_record(np.zeros(5), onehot(1), onehot(1), bad), good])
        class_outcome, domain_outcome = record.outcome, replace(bad, pool_version=dpool.version)
    if class_outcome is not None:
        with pytest.raises(ValueError, match=match):
            hp = Hyperparams(gamma_h=10.0, alpha_c=0.1)
            update_class_pool(pool, replace(record, outcome=class_outcome), hp)
    if domain_outcome is not None:
        rec = (np.zeros(5), BatchStats(np.zeros(4), np.ones(4)), domain_outcome)
        with pytest.raises(ValueError, match=match):
            update_domain_pool(dpool, *rec, Hyperparams(alpha_d=0.1))
    assert class_pool_bytes(pool) == before and pool.version == version
    assert class_pool_bytes(dpool) == dbefore and dpool.version == dversion


@pytest.mark.parametrize("fissioned", [False, True])
def test_domain_update_rejects_learned_prompt_of_wrong_dimension(fissioned):
    rng = SeededRng(9)
    pool = random_domain_pool(rng, 2, 10, 4, 4)
    before, version = class_pool_bytes(pool), pool.version
    outcome = make_outcome(np.zeros(4), None if fissioned else {0: 1.0}, pool.version)
    # a length-1 prompt would broadcast into every component of a matched row
    for learned in (np.array([7.0]), np.zeros(2), np.zeros(5)):
        rec = (learned, BatchStats(np.zeros(4), np.ones(4)), outcome)
        with pytest.raises(ValueError, match="learned prompt"):
            update_domain_pool(pool, *rec, Hyperparams(alpha_d=0.1))
    assert class_pool_bytes(pool) == before and pool.version == version


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_class_updates_are_convex_and_keys_stay_probabilities(seed):
    rng = SeededRng(seed)
    pool = random_class_pool(rng, int(rng.integers(1, 6)), 20, 3, 4)
    old = class_pool_tuples(pool)
    records = random_class_records(rng, pool, int(rng.integers(1, 6)), fission_prob=0.2)
    alpha_c = float(rng.uniform(0.0, 1.0))
    hp = Hyperparams(gamma_h=float(rng.uniform(0.2, 1.2)), alpha_c=alpha_c)
    update_class_pool(pool, records, hp)
    for key in pool.keys:
        assert key.min() >= -1e-15
        assert abs(key.sum() - 1.0) <= 1e-9
    # single-record case: updated components lie between old and incoming values
    pool2 = random_class_pool(rng, 3, 20, 3, 4)
    old2 = class_pool_tuples(pool2)
    rec = random_class_records(rng, pool2, 1, fission_prob=0.0)
    update_class_pool(pool2, rec, Hyperparams(gamma_h=10.0, alpha_c=alpha_c))
    for i in rec.outcome.candidates:
        lo = np.minimum(old2[i][1], rec.learned_prompts[0]) - 1e-12
        hi = np.maximum(old2[i][1], rec.learned_prompts[0]) + 1e-12
        assert np.all(pool2.prompts[i] >= lo)
        assert np.all(pool2.prompts[i] <= hi)


def test_mst_compact_merges_identical_pair_first():
    keys = [
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
        [0.4, 0.4, 0.2],
        [0.4, 0.4, 0.2],
    ]
    pool = load_pool(ClassPromptPool(4, 3, 3), [(k, np.full(3, float(i)), i) for i, k in enumerate(keys)])
    assignment = _compact_class_pool(pool)
    assert len(set(assignment)) == 4
    groups = partition_sets(dict(enumerate(assignment)))
    assert frozenset({3, 4}) in groups
    assert len(pool) == 4


def test_mst_compact_single_group_is_grand_mean():
    keys = [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]
    pool = load_pool(ClassPromptPool(1, 2, 2), [(k, [float(i), 0.0], i) for i, k in enumerate(keys)])
    assignment = _compact_class_pool(pool)
    assert len(set(assignment)) == 1
    assert len(pool) == 1
    np.testing.assert_allclose(pool.keys[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(pool.prompts[0], [1.0, 0.0], atol=1e-12)
    assert pool.created_at[0] == 0


def test_mst_compact_requires_overflow():
    pool = load_pool(ClassPromptPool(4, 3, 3), [(random_prob(SeededRng(0), 3), np.zeros(3), 0)])
    with pytest.raises(ValueError):
        _compact_class_pool(pool)


@pytest.mark.parametrize("seed", range(12))
def test_mst_compact_matches_bruteforce_single_linkage(seed):
    rng = SeededRng(seed)
    n = int(rng.integers(4, 13))
    capacity = int(rng.integers(1, n))
    pool = random_class_pool(rng, n, capacity, 4, 3)
    keys = [key.copy() for key in pool.keys]
    assignment = _compact_class_pool(pool)

    normed = np.stack(keys)
    normed = normed / np.linalg.norm(normed, axis=1, keepdims=True)
    dist = 1.0 - normed @ normed.T
    expected = single_linkage_bruteforce(dist, capacity)
    assert partition_sets(dict(enumerate(assignment))) == partition_sets(expected)


def linkage(dist, num_groups):
    """``_single_linkage_groups`` on the upper-triangle weights of ``dist``."""
    n = dist.shape[0]
    return _single_linkage_groups(dist[upper_triangle(n)], n, num_groups)


def cosine_distances(keys):
    normed = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    return 1.0 - np.clip(normed @ normed.T, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_compaction_assignment_matches_kruskal_reference(seed):
    # Group numbering sets the order of the merged rows, so the whole
    # assignment list must match, not only the partition.
    rng = SeededRng(100 + seed)
    n = int(rng.integers(100, 151))
    capacity = int(rng.integers(1, n))
    pool = random_class_pool(rng, n, capacity, 10, 4)
    expected = kruskal_single_linkage_reference(cosine_distances(pool.keys), capacity)
    assignment = _compact_class_pool(pool)
    assert len(assignment) == n
    assert assignment == expected
    assert all(type(g) is int for g in assignment)


@pytest.mark.parametrize("seed", range(8))
def test_single_linkage_groups_match_kruskal_reference_under_ties(seed):
    rng = SeededRng(200 + seed)
    n = int(rng.integers(2, 151))
    keys = np.stack([random_prob(rng, 3) for _ in range(n)])
    dupes = rng.integers(0, n, size=(n // 3, 2))
    keys[dupes[:, 0]] = keys[dupes[:, 1]]
    dist = np.round(cosine_distances(keys), 2)
    for num_groups in {1, max(1, n // 2), n - 1, n}:
        expected = kruskal_single_linkage_reference(dist, num_groups)
        assert linkage(dist, num_groups) == expected


def test_single_linkage_groups_continue_past_the_partitioned_edges():
    # Thirty nodes at distance 0 give 435 zero-weight edges, more than the
    # 368 edges sorted first for n=40 and 2 groups; they close only 29 of the
    # 38 unions needed, so the union must go on into the heavier edges, which
    # are rounded to 2 decimals so that they tie too.
    rng = SeededRng(11)
    dist = np.round(rng.uniform(0.1, 1.0, size=(40, 40)), 2)
    dist = np.minimum(dist, dist.T)
    dist[:30, :30] = 0.0
    np.fill_diagonal(dist, 0.0)
    num_groups = 2
    assert np.count_nonzero(dist[np.triu_indices(40, 1)] == 0.0) > 8 * (40 - num_groups) + 64
    groups = linkage(dist, num_groups)
    assert groups == kruskal_single_linkage_reference(dist, num_groups)
    assert len(set(groups)) == num_groups


def test_single_linkage_groups_break_ties_by_weight_then_i_then_j():
    # Four edges tie at 0.5; the rest weigh 0.9. Two unions are needed, and
    # (weight, i, j) order takes (0, 4) and (1, 5) before (2, 3) and (3, 5).
    dist = np.full((6, 6), 0.9)
    np.fill_diagonal(dist, 0.0)
    for i, j in [(3, 5), (2, 3), (1, 5), (0, 4)]:
        dist[i, j] = dist[j, i] = 0.5
    assert linkage(dist, 4) == [0, 1, 2, 3, 0, 1]
    assert linkage(dist, 3) == [0, 1, 2, 2, 0, 1]
    assert linkage(dist, 2) == [0, 1, 1, 1, 0, 1]


def append_and_fuse(rows, prompt_dim, feature_dim):
    """Load all but the last of ``rows``, each a (key, prompt, created_at) with
    key (mu, sigma), into a domain pool at capacity, then append the last
    through a fissioned ``update_domain_pool``, which overflows by one row and
    fuses a pair. Returns the pool and the fused pair."""
    *first, (key, prompt, created) = rows
    pool = load_pool(DomainPromptPool(len(first), prompt_dim, feature_dim), first)
    stats = BatchStats(np.asarray(key[:feature_dim], float), np.asarray(key[feature_dim:], float))
    prompt = np.asarray(prompt, float)
    outcome = make_outcome(prompt, None, pool.version)
    summary = update_domain_pool(pool, prompt, stats, outcome, Hyperparams(), created_at=created)
    assert summary.appended_index == len(first)
    return pool, summary.fused_pair


def test_fuse_nearest_pair_identical_entries_win():
    mus = [[0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]]
    # each key is (mu, sigma), with sigma zero
    rows = [([*mu, 0.0, 0.0], np.full(2, float(i)), i) for i, mu in enumerate(mus)]
    pool, pair = append_and_fuse(rows, 2, 2)
    assert pair == (1, 2)
    assert len(pool) == 3
    np.testing.assert_array_equal(pool.keys[1, :2], [5.0, 5.0])
    np.testing.assert_allclose(pool.prompts[1], [1.5, 1.5], atol=1e-15)


def test_fuse_pool_of_two_averages():
    # each key is (mu, sigma)
    rows = [([0.0, 0.0, 1.0, 1.0], [2.0, 0.0], 0), ([4.0, 0.0, 3.0, 1.0], [0.0, 2.0], 5)]
    pool, pair = append_and_fuse(rows, 2, 2)
    assert pair == (0, 1)
    mu, sigma, prompt, created = domain_pool_tuples(pool)[0]
    np.testing.assert_allclose(mu, [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sigma, [2.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(prompt, [1.0, 1.0], atol=1e-15)
    assert created == 0

    # a fusion always has a pair to merge: no pool has a capacity below 1
    with pytest.raises(ValueError):
        DomainPromptPool(0, 2, 2)


@pytest.mark.parametrize("seed", range(8))
def test_fuse_nearest_pair_matches_exhaustive_scan(seed):
    rng = SeededRng(seed)
    rows = domain_pool_tuples(random_domain_pool(rng, 6, 10, 3, 2))
    keys = np.array([np.concatenate((mu, sigma)) for mu, sigma, _, _ in rows])
    best = None
    for i in range(6):
        for j in range(i + 1, 6):
            d = float(np.linalg.norm(keys[i] - keys[j]))
            if best is None or d < best[0]:
                best = (d, i, j)
    entries = [(key, prompt, c) for key, (_, _, prompt, c) in zip(keys, rows)]
    assert append_and_fuse(entries, 2, 3)[1] == best[1:]


@pytest.mark.parametrize("seed", range(8))
def test_fuse_with_cached_pair_indices_keeps_the_bits_of_fresh_ones(seed):
    # the pair scan as it reads with np.triu_indices taken afresh
    rng = SeededRng(300 + seed)
    n = int(rng.integers(2, 30))
    rows = domain_pool_tuples(random_domain_pool(rng, n, n, 5, 3))
    keys = np.array([np.concatenate((mu, sigma)) for mu, sigma, _, _ in rows])
    prompts = np.array([prompt for _, _, prompt, _ in rows])
    iu, ju = np.triu_indices(n, k=1)
    m = int(np.argmin(np.linalg.norm(keys[iu] - keys[ju], axis=1)))
    i, j = int(iu[m]), int(ju[m])
    keys[i], prompts[i] = (keys[i] + keys[j]) / 2.0, (prompts[i] + prompts[j]) / 2.0
    entries = [(np.concatenate((mu, sigma)), prompt, c) for mu, sigma, prompt, c in rows]
    for _ in range(2):  # both calls take their pairs from the one shared triangle mask
        pool, pair = append_and_fuse(entries, 3, 5)
        assert pair == (i, j)
        assert pool.keys.tobytes() == np.delete(keys, j, axis=0).tobytes()
        assert pool.prompts.tobytes() == np.delete(prompts, j, axis=0).tobytes()


def test_shared_triangle_equals_triu_and_rejects_writes():
    # up, down, past the largest size so far and down again: every size
    # slices one mask, rebuilt only for a larger size and then at exactly it
    largest = numerics._TRIANGLE.shape[0]
    for n in (5, 130, 7, 300, 2):
        upper = upper_triangle(n)
        np.testing.assert_array_equal(upper, np.triu(np.ones((n, n), dtype=bool), 1))
        largest = max(largest, n)
        assert upper.base is numerics._TRIANGLE and numerics._TRIANGLE.shape == (largest, largest)
        with pytest.raises(ValueError, match="read-only"):
            upper[0, n - 1] = False
    # the pairs a domain fusion scans are np.triu_indices', from the shared mask
    assert upper_triangle(5).base is upper_triangle(5).base
    for got, want in zip(upper_triangle(5).nonzero(), np.triu_indices(5, 1)):
        np.testing.assert_array_equal(got, want)


def test_single_linkage_groups_join_the_rows_of_each_sorted_edge():
    # each edge's rows come from its position in the triangle; at n - 1
    # groups only the lightest edge joins, at n // 2 half the rows do
    rng = np.random.default_rng(22)
    for n in (5, 130, 7, 300, 2):
        dist = rng.uniform(size=(n, n))
        dist = dist + dist.T
        for num_groups in {n - 1, max(1, n // 2)}:
            expected = kruskal_single_linkage_reference(dist, num_groups)
            assert linkage(dist, num_groups) == expected


def first_member_numbering(rng, n: int, p_new: float, largest: int) -> list[int]:
    """A random grouping of n rows, numbered by first member, of at most
    ``largest`` members per group: each row opens a new group with
    probability ``p_new`` (or when every group is full), else joins an open one."""
    assignment, sizes = [], []
    for _ in range(n):
        open_groups = [g for g, size in enumerate(sizes) if size < largest]
        if not open_groups or rng.uniform() < p_new:
            sizes.append(0)
            open_groups = [len(sizes) - 1]
        g = open_groups[int(rng.integers(len(open_groups)))]
        sizes[g] += 1
        assignment.append(g)
    return assignment


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_merge_groups_equals_one_sequential_mean_per_group(seed, n, p_new):
    # the interpreter: each group's rows summed one by one in member order,
    # then divided by the count; a singleton keeps its row
    rng = np.random.default_rng(seed)
    f, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    assignment = first_member_numbering(rng, n, p_new, 8)
    keys = rng.normal(size=(n, 2 * f)) * 2.0 ** rng.integers(-30, 30, size=(n, 1))
    keys[:, f:] = np.abs(keys[:, f:])
    prompts = rng.normal(size=(n, d)) * 2.0 ** rng.integers(-30, 30, size=(n, 1))
    created = rng.integers(-50, 50, size=n).tolist()
    pool = load_pool(DomainPromptPool(n, d, f), list(zip(keys, prompts, created)))
    _merge_groups(pool, np.array(assignment))
    groups = [[i for i, g in enumerate(assignment) if g == k] for k in range(max(assignment) + 1)]

    def merged(rows):
        return np.array([_sequential_mean([rows[i] for i in m]) if len(m) > 1 else rows[m[0]] for m in groups])

    want_keys, want_prompts = merged(keys), merged(prompts)
    assert pool.keys.tobytes() == want_keys.tobytes()
    assert pool.prompts.tobytes() == want_prompts.tobytes()
    assert pool.created_at.tolist() == [min(created[i] for i in m) for m in groups]
    assert all(a.flags.c_contiguous and a.flags.owndata for a in (pool.keys, pool.prompts))


def test_domain_update_examples():
    rng = SeededRng(4)
    pool = random_domain_pool(rng, 2, 5, 3, 4)
    rec = random_domain_record(rng, pool, fission_prob=1.0)
    summary = update_domain_pool(pool, *rec, Hyperparams(alpha_d=0.1), created_at=3)
    assert summary.fissioned and summary.appended_index == 2
    assert summary.fused_pair is None and len(pool) == 3

    # sole candidate with weight 1 and alpha_d 0: prompt replaced, key untouched
    pool2 = random_domain_pool(rng, 1, 5, 3, 4)
    old_key = pool2.keys[0].copy()
    learned = rng.normal(size=4)
    rec2 = (
        learned,
        BatchStats(rng.normal(size=3), np.abs(rng.normal(size=3))),
        make_outcome(learned, {0: 1.0}, pool2.version),
    )
    update_domain_pool(pool2, *rec2, Hyperparams(alpha_d=0.0))
    np.testing.assert_array_equal(pool2.prompts[0], learned)
    np.testing.assert_array_equal(pool2.keys[0, :3], old_key[:3])
    np.testing.assert_array_equal(pool2.keys[0, 3:], old_key[3:])


def test_domain_update_hand_simulation():
    pool = load_pool(DomainPromptPool(5, 2, 2), [([1.0, 1.0, 2.0, 2.0], [1.0, 0.0], 0)])
    rec = (
        np.array([3.0, 4.0]),
        BatchStats(np.array([2.0, 0.0]), np.array([4.0, 0.0])),
        make_outcome(np.array([3.0, 4.0]), {0: 0.5}, pool.version),
    )
    update_domain_pool(pool, *rec, Hyperparams(alpha_d=0.1))
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
    summary = update_domain_pool(pool, *rec, Hyperparams(alpha_d=0.1))
    assert summary.fissioned and summary.fused_pair is not None
    assert len(pool) == 3


@pytest.mark.parametrize(
    "seed, batch",
    [
        pytest.param(seed, batch, id=str(seed) if batch == "random" else f"{batch}-{seed}")
        for batch in ("random", "whole block", "alternating", "sparse", "chain")
        for seed in range(10)
    ],
)
def test_update_class_pool_bitwise_matches_interpreter(seed, batch):
    # "whole block": every matched sample names every touched row;
    # "alternating": such samples take turns with ones naming a strict subset;
    # "sparse": a saturating batch's shape, 32 or more matched samples of one
    # to three candidates over 20 or more rows, which recur across steps;
    # "chain": consecutive matched samples share exactly one row, so some
    # sample's entries fall in two steps
    rng = SeededRng(100 + seed)
    n = int(rng.integers(0, 8))
    if batch == "sparse":
        n = int(rng.integers(20, 40))
    elif batch == "chain":
        n = int(rng.integers(4, 13))
    elif batch != "random":
        n = max(n, 2)
    capacity = int(rng.integers(max(1, n - 2), n + 6))
    classes = 10 if batch == "sparse" else 3
    pool = random_class_pool(rng, n, capacity, classes, 4)
    if batch == "random":
        records = random_class_records(rng, pool, int(rng.integers(1, 9)), fission_prob=0.4)
    elif batch == "sparse":
        records = sparse_class_records(
            rng, pool, int(rng.integers(32, 64)), int(rng.integers(0, 8))
        )
    elif batch == "chain":
        records = chain_class_records(rng, pool, int(rng.integers(8, 33)), int(rng.integers(0, 4)))
    else:
        records = block_class_records(rng, pool, int(rng.integers(2, 9)), batch == "alternating")
    gamma_h = float(rng.uniform(0.0, np.log(3)))
    if batch in ("sparse", "chain"):
        # every sample passes the gate
        gamma_h = max(map(entropy, records.predictions)) + 1e-9
    elif batch != "random":
        # the first two samples, whole block and then subset when alternating, pass the gate
        gamma_h = max(gamma_h, *map(entropy, records.predictions[:2])) + 1e-9
    alpha_c = float(rng.uniform(0.0, 1.0))
    expected = algorithm1_reference(class_pool_tuples(pool), capacity, records, gamma_h, alpha_c, 5)
    summary = update_class_pool(
        pool, records, Hyperparams(gamma_h=gamma_h, alpha_c=alpha_c), created_at=5
    )
    assert batch == "random" or not {0, 1} & set(summary.skipped)
    if batch == "sparse":
        assert not summary.skipped and len(records) - len(summary.appended) >= 32
        assert len(summary.updated) >= 20
    if batch == "chain":
        # an entry's step is the count of earlier entries of its row; some
        # sample has entries of two steps
        cand, offsets = records.outcome.candidates, records.outcome.offsets
        met, split = np.zeros(n, dtype=int), False
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            split |= len(set(met[cand[lo:hi]].tolist())) > 1
            met[cand[lo:hi]] += 1
        assert not summary.skipped and split
    assert len(pool) == len(expected)
    for got_key, got_prompt, got_created, (key, prompt, created) in zip(
        pool.keys, pool.prompts, pool.created_at, expected
    ):
        assert got_key.tobytes() == key.tobytes()
        assert got_prompt.tobytes() == prompt.tobytes()
        assert got_created == created


@st.composite
def candidate_lists(draw):
    """Each sample's candidate rows, ascending, over a block of touched rows."""
    num_rows = draw(st.integers(min_value=1, max_value=12))
    rows = st.sets(st.integers(min_value=0, max_value=num_rows - 1), min_size=1)
    samples = [sorted(r) for r in draw(st.lists(rows, min_size=1, max_size=40))]
    touched = sorted(set().union(*samples))
    # positions in the block of the rows the batch touches
    samples = [[touched.index(r) for r in sample] for sample in samples]
    return samples, len(touched)


@given(candidate_lists())
@settings(max_examples=300, deadline=None)
def test_update_order_steps_are_conflict_free_ordered_and_minimal(case):
    samples, num_rows = case
    sizes = np.array([len(s) for s in samples])
    pos = np.array([p for s in samples for p in s], dtype=np.int64)
    order, ends = _update_order(pos, sizes, num_rows)
    order = np.arange(pos.size)[order]
    # every entry is applied once
    assert sorted(order.tolist()) == list(range(pos.size)) and ends[-1] == pos.size
    seen_by_row = {row: [] for row in range(num_rows)}
    for lo, hi in zip([0] + ends[:-1], ends):
        step = order[lo:hi].tolist()
        at = pos[step].tolist()
        # no row twice, rows ascending
        assert at == sorted(set(at))
        for e, row in zip(step, at):
            seen_by_row[row].append(e)
    # entries are laid out by sample, so each row meets its entries in sample order
    assert all(seen == sorted(seen) for seen in seen_by_row.values())
    assert len(ends) == np.bincount(pos).max()


def test_update_steps_take_whole_block_slices_per_sample_when_every_sample_names_every_row():
    # the batch keeps its own order, and step t is sample t's entries over the whole block
    sizes, pos = np.array([3, 3, 3]), np.tile(np.arange(3), 3)
    assert _update_order(pos, sizes, 3) == (slice(None), [3, 6, 9])


@pytest.mark.parametrize("seed", range(10))
def test_update_domain_pool_bitwise_matches_interpreter(seed):
    rng = SeededRng(200 + seed)
    n = int(rng.integers(0, 6))
    capacity = int(rng.integers(max(1, n - 1), n + 3))
    pool = random_domain_pool(rng, n, capacity, 3, 4)
    record = random_domain_record(rng, pool, fission_prob=0.5)
    expected = algorithm2_reference(domain_pool_tuples(pool), capacity, *record, 0.1, 5)
    update_domain_pool(pool, *record, Hyperparams(alpha_d=0.1), created_at=5)
    assert len(pool) == len(expected)
    for got, (mu, sigma, prompt, created) in zip(domain_pool_tuples(pool), expected):
        got_mu, got_sigma, got_prompt, got_created = got
        assert got_mu.tobytes() == mu.tobytes()
        assert got_sigma.tobytes() == sigma.tobytes()
        assert got_prompt.tobytes() == prompt.tobytes()
        assert got_created == created


def test_capacity_invariants_after_updates():
    rng = SeededRng(6)
    pool = random_class_pool(rng, 5, 5, 3, 4)
    records = random_class_records(rng, pool, 8, fission_prob=0.9)
    summary = update_class_pool(pool, records, Hyperparams(gamma_h=10.0, alpha_c=0.1))
    assert len(pool) <= pool.capacity
    if summary.compaction is not None:
        assert len(set(summary.compaction)) == pool.capacity

    dpool = random_domain_pool(rng, 3, 3, 3, 4)
    for _ in range(4):
        rec = random_domain_record(rng, dpool, fission_prob=1.0)
        update_domain_pool(dpool, *rec, Hyperparams(alpha_d=0.1))
        assert len(dpool) <= dpool.capacity


def test_pool_arrays_stay_contiguous_after_updates_compaction_and_fusion():
    def contiguous(pool):
        return all(a.flags.c_contiguous and a.flags.owndata for a in (pool.keys, pool.prompts))

    rng = SeededRng(7)
    pool = random_class_pool(rng, 6, 20, 3, 4)
    records = block_class_records(rng, pool, 6, True)
    summary = update_class_pool(pool, records, Hyperparams(gamma_h=10.0, alpha_c=0.3))
    assert summary.updated and summary.compaction is None and contiguous(pool)

    pool = random_class_pool(rng, 5, 5, 3, 4)
    records = random_class_records(rng, pool, 4, fission_prob=1.0)
    summary = update_class_pool(pool, records, Hyperparams(gamma_h=10.0, alpha_c=0.1))
    assert summary.compaction is not None and contiguous(pool)

    dpool = random_domain_pool(rng, 3, 3, 3, 4)
    rec = random_domain_record(rng, dpool, fission_prob=1.0)
    assert update_domain_pool(dpool, *rec, Hyperparams(alpha_d=0.1)).fused_pair is not None
    assert contiguous(dpool)


def domain_pool_bytes(rows):
    return b"".join(mu.tobytes() + sigma.tobytes() + prompt.tobytes() for mu, sigma, prompt, _ in rows)


@pytest.mark.parametrize(
    "keys, appended, pair",
    [
        # pairs (0, 1), (0, 3) and (1, 2) all lie exactly 5.0 apart
        ([[0, 0, 1, 1], [3, 4, 1, 1], [6, 8, 1, 1]], [0, 0, 4, 5], (0, 1)),
        # the appended row is 5.0 from both rows 0 and 1
        ([[0, 0, 0, 0], [6, 8, 0, 0], [20, 0, 0, 0]], [3, 4, 0, 0], (0, 3)),
    ],
    ids=["three-way-tie", "tie-on-the-appended-row"],
)
def test_domain_fusion_takes_the_lowest_of_exactly_tied_pairs(keys, appended, pair):
    # keys on integer coordinates, 3-4-5 triangles apart, make several pair
    # distances exactly equal; the nearest-pair rule breaks the tie by (i, j)
    rows = [(np.array(k, dtype=float), np.array([float(i), -float(i)]), i) for i, k in enumerate(keys)]
    pool = load_pool(DomainPromptPool(3, 2, 2), rows)
    stats = BatchStats(np.array(appended[:2], dtype=float), np.array(appended[2:], dtype=float))
    learned = np.array([7.0, 9.0])
    outcome = make_outcome(learned, None, pool.version)
    expected = algorithm2_reference(domain_pool_tuples(pool), 3, learned, stats, outcome, 0.1, 4)
    summary = update_domain_pool(pool, learned, stats, outcome, Hyperparams(alpha_d=0.1), created_at=4)
    assert summary.fused_pair == pair
    assert domain_pool_bytes(domain_pool_tuples(pool)) == domain_pool_bytes(expected)
    assert pool.created_at.tolist() == [c for *_, c in expected]


def test_gate_passes_a_sample_whose_entropy_is_exactly_gamma_h():
    # gamma_h is the entropy the gate computes for the one sample: skipping is
    # strictly above it, so the sample updates its candidate; just below it,
    # the sample is skipped
    key = random_prob(SeededRng(4), 3)
    pred = np.array([0.5, 0.25, 0.25])
    gamma_h = float(-np.add.reduce(pred * np.log(pred)))
    for gate, skipped in ((gamma_h, []), (np.nextafter(gamma_h, 0.0), [0])):
        pool = load_pool(ClassPromptPool(10, 2, 3), [(key, np.zeros(2), 0)])
        rec = matched_record(pool, np.ones(2), pred, pred, {0: 1.0})
        summary = update_class_pool(pool, rec, Hyperparams(gamma_h=gate, alpha_c=0.1))
        assert summary.skipped == skipped
        assert summary.updated == ([0] if not skipped else [])


def test_compaction_clips_a_gram_entry_above_one_to_a_zero_distance():
    # Two duplicate-key pairs at capacity n - 1: the one-hot pair (0, 1) has a
    # Gram entry of exactly 1, and the later pair (2, 3) one that rounds above
    # 1. Clipped, both distances are 0 and the earlier pair merges; unclipped,
    # the later pair's distance would be negative and it would merge instead.
    rng = SeededRng(31)
    for _ in range(100):
        key = random_prob(rng, 3)
        keys = np.stack([onehot(0), onehot(0), key, key])
        normed = keys / numerics.row_norms(keys, keepdims=True)
        gram = normed @ normed.T
        if gram[2, 3] > 1.0:
            break
    assert gram[0, 1] == 1.0 and gram[2, 3] > 1.0
    pool = load_pool(ClassPromptPool(3, 2, 3), [(k, np.full(2, float(i)), i) for i, k in enumerate(keys[:3])])
    outcome = make_outcome(np.full(2, 3.0), None, pool.version)
    summary = update_class_pool(pool, class_record(np.full(2, 3.0), key, key, outcome), Hyperparams(gamma_h=10.0))
    assert summary.compaction == [0, 0, 1, 2]
    merged = np.stack([onehot(0), key, key])
    assert pool.keys.tobytes() == (merged / np.add.reduce(merged, 1, keepdims=True)).tobytes()
    assert pool.prompts.tolist() == [[0.5, 0.5], [2.0, 2.0], [3.0, 3.0]]
