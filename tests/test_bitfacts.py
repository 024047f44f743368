"""Bit-level facts about numpy and its BLAS that the engine's batched forms rely on,
and one about Python's float text that the stream writer relies on.

The pools are pinned bit for bit to one-sample interpreters (tests/reference.py),
so a batched expression may replace a per-row loop only where it carries each
row's bits. Likewise the batch path may skip numpy's Python-level mean, norm
and reduction wrappers only where the bare arithmetic gives their bits. Each
fact below names the engine code that relies on it; a numpy or BLAS change
that breaks one fails here, by name, before it fails in the golden bytes.
Shapes span the engine's: candidate counts and prompt widths below 80,
batches up to 130, classes up to 40.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctta.numerics import SeededRng

seeds = st.integers(min_value=0, max_value=2**32 - 1)
widths = st.integers(min_value=1, max_value=79)  # k or d
batches = st.integers(min_value=1, max_value=129)
classes = st.integers(min_value=1, max_value=39)
scales = st.integers(min_value=-150, max_value=150)  # powers of two; squares stay finite


def arrays(seed):
    return np.random.default_rng(seed)


def probability_rows(rng, rows, cols):
    v = rng.uniform(0.02, 1.0, size=(rows, cols))
    return v / v.sum(axis=1, keepdims=True)


def test_fact1_a_gemm_row_is_not_a_matrix_vector_product():
    # Why class fission does not take labels @ keys.T: some of its rows differ
    # from keys @ y. Were every row to match, the one GEMM would do.
    rng = arrays(1)
    differ = 0
    for _ in range(200):
        n, c, b = (int(x) for x in rng.integers(1, 40, size=3))
        keys, labels = probability_rows(rng, n, c), probability_rows(rng, b, c)
        gemm = labels @ keys.T
        differ += sum(gemm[t].tobytes() != (keys @ y).tobytes() for t, y in enumerate(labels))
    assert differ > 0


@given(seeds, st.integers(min_value=0, max_value=129), widths)
@settings(max_examples=60, deadline=None)
def test_fact2_one_normal_draw_equals_sequential_draws(seed, k, d):
    # pools._compose draws every fresh prompt of a batch at once
    whole = SeededRng(seed).normal(size=(k, d))
    rng = SeededRng(seed)
    rows = [rng.normal(size=d) for _ in range(k)]
    assert whole.tobytes() == np.array(rows).reshape(k, d).tobytes()


def test_fact3_zero_padding_changes_sums_and_blends():
    # Why pools._compose groups rows by candidate count instead of padding
    # them to one width with zero weights.
    rng = arrays(3)
    sums_differ = blends_differ = 0
    for _ in range(200):
        k = int(rng.integers(1, 40))
        pad = k + int(rng.integers(1, 40))
        e, prompts = rng.uniform(0.0, 1.0, size=k), rng.normal(size=(pad, 7))
        padded = np.concatenate((e, np.zeros(pad - k)))
        sums_differ += padded.sum().tobytes() != e.sum().tobytes()
        blends_differ += (padded @ prompts).tobytes() != (e @ prompts[:k]).tobytes()
    assert sums_differ > 0 and blends_differ > 0


@given(seeds, batches, widths, classes)
@settings(max_examples=60, deadline=None)
def test_fact4_stacked_key_products_carry_each_rows_bits(seed, b, n, c):
    # pools.fission_class_batch: keys @ y and y @ y for every label at once
    rng = arrays(seed)
    keys, labels = probability_rows(rng, n, c), probability_rows(rng, b, c)
    col = labels[:, :, None]
    dots = np.matmul(keys[None], col)[:, :, 0]
    sq = np.matmul(labels[:, None, :], col)[:, 0, 0]
    for t, y in enumerate(labels):
        assert dots[t].tobytes() == (keys @ y).tobytes()
        assert sq[t].tobytes() == (y @ y).tobytes()


@given(seeds, batches, widths, widths)
@settings(max_examples=60, deadline=None)
def test_fact4_stacked_blends_carry_each_rows_bits(seed, g, k, d):
    # pools._compose: one stacked product blends a group's gathered prompts
    rng = arrays(seed)
    w, prompts = rng.uniform(0.0, 1.0, size=(g, k)), rng.normal(size=(g, k, d))
    stacked = np.matmul(w[:, None, :], prompts)[:, 0]
    for t in range(g):
        assert stacked[t].tobytes() == (w[t] @ prompts[t]).tobytes()


@given(seeds, batches, widths, st.integers(min_value=1, max_value=79))
@settings(max_examples=60, deadline=None)
def test_fact4_gathered_row_sums_equal_each_rows_own_sum(seed, q, k, n):
    # pools._compose: a group's normalisers are one row sum of its gathered
    # candidates, num[at].sum(axis=1); a gathered block of whole rows,
    # totals[rows].sum(axis=1), keeps each row's own sum as well
    rng = arrays(seed)
    counts = rng.integers(0, 2, size=q) * k  # rows of k candidates among empty ones
    offsets = np.concatenate(([0], np.cumsum(counts)))
    num = rng.uniform(0.0, 1.0, size=offsets[-1])
    rows = np.flatnonzero(counts)
    at = offsets[rows, None] + np.arange(k)
    sums = num[at].sum(axis=1)
    for s, t in zip(sums, rows):
        assert s.tobytes() == num[offsets[t] : offsets[t + 1]].sum().tobytes()
    totals = rng.uniform(0.0, 1.0, size=(q, n))
    full = totals[rows].sum(axis=1)
    for s, t in zip(full, rows):
        assert s.tobytes() == totals[t].sum().tobytes()


@given(seeds, batches, widths, classes)
@settings(max_examples=60, deadline=None)
def test_fact5_hoisted_elementwise_products_carry_each_samples_bits(seed, b, k, c):
    # fusion.update_class_pool: each sample's inputs are scaled for the whole
    # batch at once, as rows gathered by np.repeat, instead of broadcast per sample
    rng = arrays(seed)
    sizes = rng.integers(1, k + 1, size=b)
    ends = np.cumsum(sizes)
    weights, preds = rng.uniform(0.0, 1.0, size=(ends[-1], 1)), probability_rows(rng, b, c)
    hoisted = weights * preds[np.repeat(np.arange(b), sizes)]
    for t, (start, end) in enumerate(zip(ends - sizes, ends)):
        assert hoisted[start:end].tobytes() == (weights[start:end] * preds[t]).tobytes()


@given(seeds, st.integers(min_value=2, max_value=129), widths, scales)
@settings(max_examples=60, deadline=None)
def test_fact6_a_mean_is_its_sum_divided_by_the_count(seed, b, d, exponent):
    # numerics.moments (for batch_stats and objective._stats_terms) and
    # objective._loss: the feature mean, the mean squared deviation and the
    # mean entropy as sum / b
    rng = arrays(seed)
    z = rng.normal(size=(b, d)) * 2.0**exponent
    mu = z.sum(axis=0) / b
    assert mu.tobytes() == z.mean(axis=0).tobytes()
    sq = (z - mu) ** 2
    assert (sq.sum(axis=0) / b).tobytes() == sq.mean(axis=0).tobytes()
    ent = rng.uniform(0.0, 4.0, size=b)
    assert (ent.sum() / b).tobytes() == ent.mean().tobytes()


@given(seeds, widths, scales)
@settings(max_examples=60, deadline=None)
def test_fact7_a_vector_norm_is_the_root_of_its_self_dot(seed, d, exponent):
    # objective._stats_terms: the mean and spread distances as sqrt(v . v)
    v = arrays(seed).normal(size=d) * 2.0**exponent
    assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))


@given(
    seeds,
    st.integers(min_value=1, max_value=130),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=64),
    scales,
)
@settings(max_examples=100, deadline=None)
def test_fact8_a_row_sum_over_leading_columns_equals_its_contiguous_copys(seed, n, c, d, exponent):
    # fusion.update_class_pool: the keys are the first c columns of one
    # (rows, c + d) block and are normalised in place there, as a separate
    # contiguous key matrix would be; c spans both sides of numpy's 8-wide
    # unrolled sum
    rng = arrays(seed)
    block = rng.uniform(0.0, 1.0, size=(n, c + d)) * 2.0**exponent
    keys, contiguous = block[:, :c], block[:, :c].copy()
    sums = keys.sum(axis=1, keepdims=True)
    assert sums.tobytes() == contiguous.sum(axis=1, keepdims=True).tobytes()
    quotient = contiguous / sums
    keys /= sums
    assert keys.tobytes() == quotient.tobytes()


@given(seeds, st.integers(min_value=1, max_value=130), widths, scales)
@settings(max_examples=100, deadline=None)
def test_fact9_gathered_sums_and_count_quotients_equal_row_by_row_means(seed, n, w, exponent):
    # fusion._merge_groups: every group's rank-r member is added to its sum in
    # one gathered add, rank after rank, and the sums are divided by an int64
    # count column; a row-by-row mean adds each group's rows and divides by len
    rng = arrays(seed)
    rows = rng.normal(size=(n, w)) * 2.0 ** rng.integers(exponent - 20, exponent + 20, size=(n, 1))
    members, sizes = rng.permutation(n), []  # groups of 1 to 8 rows
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 9)), n - sum(sizes)))
    counts = np.array(sizes)
    starts = np.cumsum(counts) - counts
    merged = rows[members[starts]]
    for rank in range(1, counts.max()):
        groups = np.flatnonzero(counts > rank)
        merged[groups] += rows[members[starts[groups] + rank]]
    merged /= counts[:, None]
    for g, (start, m) in enumerate(zip(starts.tolist(), counts.tolist())):
        acc = rows[members[start]].copy()
        for r in rows[members[start + 1 : start + m]]:
            acc += r
        assert merged[g].tobytes() == (acc / m).tobytes()


@given(seeds, st.integers(min_value=1, max_value=130), widths, st.integers(min_value=0, max_value=8), scales)
@settings(max_examples=100, deadline=None)
def test_fact10_norms_and_method_reductions_equal_their_ufunc_reduce(seed, n, w, pad, exponent):
    # numerics.row_norms (for class and domain fission, compaction and domain
    # fusion) and every reduction on the batch path: the Python wrappers run
    # the same C kernels on the same operands, also on a column slice of a
    # wider matrix as the class update's key normaliser reads it
    rng = arrays(seed)
    wide = rng.normal(size=(n, w + pad)) * 2.0**exponent
    for x in (wide, wide[:, :w]):
        for keepdims in (False, True):
            norm = np.linalg.norm(x, axis=1, keepdims=keepdims)
            assert norm.tobytes() == np.sqrt(np.add.reduce(x * x, 1, keepdims=keepdims)).tobytes()
            for axis in (0, 1):
                assert x.sum(axis=axis, keepdims=keepdims).tobytes() == (
                    np.add.reduce(x, axis, keepdims=keepdims).tobytes()
                )
                assert x.max(axis=axis, keepdims=keepdims).tobytes() == (
                    np.maximum.reduce(x, axis, keepdims=keepdims).tobytes()
                )
        assert x.min().tobytes() == np.minimum.reduce(x, None).tobytes()
        mask = x > 0.0
        assert np.add.reduce(mask, 1).tobytes() == mask.sum(axis=1).tobytes()
        assert mask.any() == np.any(mask) and mask.all() == np.all(mask)
        # harness.run_ctta's error rate: the mean of a mask is its exact count over its length
        assert np.count_nonzero(mask[0]) / len(mask[0]) == float(np.mean(mask[0]))


@given(st.floats())
@settings(max_examples=500, deadline=None)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_fact11_percent_format_writes_a_float_as_format_does(x):
    # stream.write_stream formats a row with one '%.9g' per value in one
    # %-format; both forms call PyOS_double_to_string(x, 'g', 9, 0)
    assert "%.9g" % x == format(x, ".9g")


@given(seeds, batches, st.integers(min_value=1, max_value=79), st.integers(min_value=-20, max_value=9))
@settings(max_examples=100, deadline=None)
def test_fact12_a_gathered_blocks_max_and_exp_equal_the_whole_matrixs(seed, q, n, exponent):
    # pools._compose: each candidate-count group takes softmax_rows of its
    # gathered (g, k) scores; each row's shift and exponentials must be those
    # of its candidates taken alone, as class_fission_reference takes them
    rng = arrays(seed)
    scores = rng.normal(size=(q, n)) * 2.0**exponent
    mask = rng.uniform(size=(q, n)) < rng.uniform()
    flat = np.flatnonzero(mask)
    counts = mask.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    masked_max = np.where(mask, scores, -np.inf).max(axis=1)
    shifted = scores - masked_max[:, None]  # <= 0 at every candidate
    # the non-candidates are capped at 0 so that the whole matrix's exp stays finite
    whole, candidates = np.exp(np.minimum(shifted, 0.0)), np.exp(shifted.take(flat))
    for k in set(counts[counts > 0].tolist()):
        rows = np.flatnonzero(counts == k)
        at = offsets[rows][:, None] + np.arange(k)
        block = scores.take(flat[at])
        assert np.maximum.reduce(block, 1).tobytes() == masked_max[rows].tobytes()
        gathered = np.exp(shifted.take(flat[at]))
        assert gathered.tobytes() == whole.take(flat[at]).tobytes()
        assert gathered.tobytes() == candidates[at].tobytes()
