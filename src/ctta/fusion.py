"""Knowledge fusion: writing learned prompts back into the pools.

Both pools share one write path. A matched update blends each candidate row
toward its input, ``inp + keep * row``, with coefficient ``alpha * w`` on the
key columns and ``w`` on the prompt columns; only the class pool then
renormalises its keys. A class-pool update reads one validated, entropy-gated
batch record. Each row meets its matched samples in sample order and no row
reads another, so step k applies the k-th entry of every row at once, with
the bits of applying the samples one by one; a domain update is one step.
A pool over capacity merges greedily by single linkage: Kruskal's algorithm
takes edges in (weight, i, j) order from a stable argsort of the row-major
upper triangle (light edges first, the rest only if needed) and stops at the
target count of components, which cuts the heaviest edges of the minimum
spanning tree. The class pool compacts to capacity on cosine distances; a
domain append that overflows merges the nearest pair by Euclidean distance,
ties to the lowest (i, j). Each group merges into its mean, groups numbered
by their first member. All mutation of pools happens here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import BatchStats, Hyperparams, Matrix, as_array, check_stats, row_norms, upper_triangle
from .pools import ClassPromptPool, DomainPromptPool, FissionOutcome


class PoolVersionError(RuntimeError):
    """A fission outcome is stale: the pool mutated after it was computed."""


@dataclass
class ClassUpdateRecord:
    """One batch's inputs to the class-pool update, validated there.

    Row t of each matrix and of ``outcome`` belongs to sample t.
    """

    learned_prompts: Matrix
    predictions: Matrix
    pseudo_labels: Matrix
    outcome: FissionOutcome

    def __len__(self) -> int:
        return len(self.outcome)


@dataclass
class ClassUpdateSummary:
    """Sample and row indices of one class-pool update; ``compaction`` is the
    group of every pre-compaction row, when the update compacted."""

    skipped: list[int] = field(default_factory=list)
    appended: list[int] = field(default_factory=list)
    updated: list[int] = field(default_factory=list)
    compaction: list[int] | None = None


@dataclass
class DomainUpdateSummary:
    fissioned: bool = False
    appended_index: int | None = None
    updated: list[int] = field(default_factory=list)
    fused_pair: tuple[int, int] | None = None


def _check_outcome(pool, outcome: FissionOutcome) -> None:
    """Reject a stale or malformed outcome before any row is written.

    The outcome must be computed at the pool's current version. Its offsets
    must rise from 0 to the candidate count, one row per composed prompt, and
    its candidates must be aligned with its weights, name rows the pool has
    and ascend strictly within each row.
    """
    if outcome.pool_version != pool.version:
        raise PoolVersionError(
            f"outcome computed at pool version {outcome.pool_version}, "
            f"pool is now at {pool.version}"
        )
    cand, offsets = outcome.candidates, outcome.offsets
    if cand.ndim != 1 or cand.shape != outcome.weights.shape:
        raise ValueError("outcome candidates and weights must be aligned 1-d arrays")
    if (
        offsets.shape != (len(outcome.composed) + 1,)
        or offsets[0] != 0
        or offsets[-1] != cand.size
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise ValueError("outcome offsets must rise from 0 to the candidate count, one per row")
    if not cand.size:
        return
    if cand.min() < 0 or cand.max() >= len(pool):
        missing = cand[(cand < 0) | (cand >= len(pool))][0]
        raise PoolVersionError(f"outcome references missing pool index {missing}")
    # One pass over all rows; the step into the next row is exempt.
    ascending = cand[1:] > cand[:-1]
    starts = offsets[1:-1]
    ascending[starts[(starts > 0) & (starts < cand.size)] - 1] = True
    if not ascending.all():
        raise ValueError("outcome candidates must be strictly ascending")


def _update_order(pos: np.ndarray, sizes: np.ndarray, num_rows: int) -> tuple:
    """The entry order and step ends of the sequential class update.

    Sample t's candidate entries are the next ``sizes[t]`` of ``pos``, each
    the position of its row in a block of ``num_rows`` touched rows. Step k
    applies the k-th entry of every row that has one, rows ascending: no step
    names a row twice, each row meets its entries in sample order, and there
    are as many steps as the most entries any row has, the fewest possible.
    Returns ``order``, which lays the entries out step after step, and the end
    of each step in that layout. When every sample names every touched row,
    the order is the batch's own and each sample is one step.
    """
    if pos.size == len(sizes) * num_rows:
        return slice(None), list(range(num_rows, pos.size + 1, num_rows))
    by_row = pos.argsort(kind="stable")
    counts = np.bincount(pos)
    # the rank of each entry among its row's entries, in by_row's layout
    rank = np.arange(pos.size) - (counts.cumsum() - counts).repeat(counts)
    return by_row[rank.argsort(kind="stable")], np.bincount(rank).cumsum().tolist()


def _blend_rows(pool, rows, alpha, weights, inputs, *, pos=None, ends=None, normalise=False) -> None:
    """Blend ``inputs`` convexly into the pool's ``rows``: entry e has weight
    ``weights[e]`` and input row ``inputs[e]`` (keys then prompts; one row
    broadcasts). Step s applies the entries up to ``ends[s]`` (by default one
    step of all) to the block rows at ``pos``, or to the whole block if it names
    every row; with ``normalise`` it then divides the key columns by their row sums."""
    # The inputs are scaled at once, elementwise as one sample's would be
    # (fact 5, tests/test_bitfacts.py), and the rows gathered and scattered
    # once; the key columns' row sums are the contiguous keys' (facts 4, 8).
    width = pool.keys.shape[1]
    coef = np.empty((len(weights), width + pool.prompts.shape[1]))
    coef[:, :width], coef[:, width:] = alpha * weights, weights
    inp, keep = coef * inputs, 1.0 - coef
    block, lo = np.concatenate((pool.keys[rows], pool.prompts[rows]), axis=1), 0
    block_keys = block[:, :width]
    for hi in ends or [len(rows)]:
        # a step of every touched row names them in ascending order
        whole = hi - lo == len(rows)
        step = block if whole else block[pos[lo:hi]]
        np.multiply(keep[lo:hi], step, out=step)
        np.add(inp[lo:hi], step, out=step)
        if normalise:
            step_keys = block_keys if whole else step[:, :width]
            step_keys /= np.add.reduce(step_keys, 1, keepdims=True)
        if not whole:
            block[pos[lo:hi]] = step
        lo = hi
    pool.keys[rows], pool.prompts[rows] = block[:, :width], block[:, width:]


def update_class_pool(
    pool: ClassPromptPool, record: ClassUpdateRecord, hp: Hyperparams, *, created_at: int = 0
) -> ClassUpdateSummary:
    """Write a batch of learned class prompts back into the pool.

    Samples whose prediction entropy exceeds ``hp.gamma_h`` are skipped entirely.
    Fissioned samples append a (pseudo-label, learned prompt) entry; matched
    samples update every candidate entry convexly, keys with coefficient
    ``hp.alpha_c * weight`` (renormalized to sum 1) and prompts with the raw
    weight, each row meeting its samples in sample order. If the pool ends
    above capacity, a spanning-tree compaction merges it down to exactly the
    capacity.
    """
    outcome = record.outcome
    _check_outcome(pool, outcome)
    b, dim, num_classes = len(outcome), pool.prompt_dim, pool.num_classes
    learned = as_array(record.learned_prompts, (b, dim), "learned prompts")
    preds = as_array(record.predictions, (b, num_classes), "predictions")
    labels = as_array(record.pseudo_labels, (b, num_classes), "pseudo labels")
    # zero-guarded: predictions may hold exact zeros (numerics: second forms)
    ent = -np.add.reduce(preds * np.log(np.where(preds > 0.0, preds, 1.0)), 1)

    gated, fissioned_rows = ent > hp.gamma_h, outcome.fissioned
    summary = ClassUpdateSummary(skipped=gated.nonzero()[0].tolist())
    fissioned = (~gated & fissioned_rows).nonzero()[0]
    matched = (~gated & ~fissioned_rows).nonzero()[0]
    if matched.size:
        counts = outcome.offsets[1:] - outcome.offsets[:-1]
        kept = (~gated).repeat(counts)
        sizes = counts[matched]
        cand = outcome.candidates[kept]
        hit = np.zeros(len(pool), dtype=bool)
        hit[cand] = True
        rows = hit.nonzero()[0]
        pos = rows.searchsorted(cand)
        order, ends = _update_order(pos, sizes, len(rows))
        sample = matched.repeat(sizes)[order]
        inputs = np.concatenate((preds, learned), axis=1)[sample]
        weights = outcome.weights[kept][order][:, None]
        _blend_rows(pool, rows, hp.alpha_c, weights, inputs, pos=pos[order], ends=ends, normalise=True)
        summary.updated = rows.tolist()
    if fissioned.size:
        summary.appended = list(range(len(pool), len(pool) + len(fissioned)))
        pool._extend(labels[fissioned], learned[fissioned], [created_at] * len(fissioned))

    if len(pool) > pool.capacity:
        summary.compaction = _compact_class_pool(pool)
    pool.version += 1
    return summary


def _single_linkage_groups(weights: np.ndarray, n: int, num_groups: int) -> list[int]:
    """Kruskal-style union of ascending edges until ``num_groups`` components remain.

    ``weights`` holds the edge weights of the strict upper triangle of ``n``
    rows, laid out row-major, i.e. in (i, j) order, so a stable argsort of it
    visits edges in (weight, i, j) order, ties included. Equivalent to
    building the MST and deleting its heaviest edges. At ``n - 1`` groups
    only the first lightest edge joins. Otherwise the union usually stops
    after a handful of edges, so only the edges up to a partition threshold
    are sorted first; the heavier ones are sorted only if the union runs past
    them. Groups are numbered by their first member.
    """
    # row i's first edge is i * n - i * (i + 1) / 2; its edge e joins i and e - starts[i] + i + 1
    starts = np.arange(n) * np.arange(2 * n - 1, n - 1, -1) // 2
    if num_groups == n - 1:
        # Kruskal's first union is the triangle's first minimum (i, j): row j joins i's group
        e = int(weights.argmin())
        i = int(starts.searchsorted(e, "right")) - 1
        groups = list(range(n - 1))
        groups.insert(e - int(starts[i]) + i + 1, i)
        return groups
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    k = 8 * (n - num_groups) + 64
    if k < weights.size:
        light = weights <= np.partition(weights, k - 1)[k - 1]
        tiers = [light.nonzero()[0], (~light).nonzero()[0]]
    else:
        tiers = [np.arange(weights.size)]
    components = n
    for edges in tiers:
        edges = edges[weights[edges].argsort(kind="stable")]
        iu = starts.searchsorted(edges, "right") - 1
        for i, j in zip(iu.tolist(), (edges - starts[iu] + iu + 1).tolist()):
            if components <= num_groups:
                break
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                components -= 1
        if components <= num_groups:
            break
    group_of_root: dict[int, int] = {}
    return [group_of_root.setdefault(find(i), len(group_of_root)) for i in range(n)]


def _merge_groups(pool, assignment: np.ndarray) -> None:
    """Replace the rows by one per group, ``assignment`` numbering them by first
    member: a singleton keeps its row, a larger group takes the mean of its keys
    and of its prompts side by side, and its earliest ``created_at``. Each group
    starts at its first member and takes one gathered add per member rank, so
    its sum runs row by row in member order (test_bitfacts.py, fact 9)."""
    width, rows = pool.keys.shape[1], np.concatenate((pool.keys, pool.prompts), axis=1)
    members = assignment.argsort(kind="stable")
    counts = np.bincount(assignment)
    starts = counts.cumsum() - counts
    merged = rows[members[starts]]
    for rank in range(1, counts.max()):
        groups = (counts > rank).nonzero()[0]
        merged[groups] += rows[members[starts[groups] + rank]]
    merged /= counts[:, None]
    pool.keys, pool.prompts = merged[:, :width].copy(), merged[:, width:].copy()
    pool.created_at = np.minimum.reduceat(pool.created_at[members], starts)


def _compact_class_pool(pool: ClassPromptPool) -> list[int]:
    """Merge an over-capacity class pool down to capacity via single linkage.

    Returns the group of every row; the caller advances the version.
    """
    if len(pool) <= pool.capacity:
        raise ValueError("compaction requires pool size above capacity")
    # all pairwise cosines in one product of normalised keys (numerics: second forms)
    n, normed = len(pool), pool.keys / row_norms(pool.keys, keepdims=True)
    dist = 1.0 - np.clip((normed @ normed.T)[upper_triangle(n)], -1.0, 1.0)
    assignment = _single_linkage_groups(dist, n, pool.capacity)
    _merge_groups(pool, np.array(assignment))
    pool.keys /= np.add.reduce(pool.keys, 1, keepdims=True)
    return assignment


def update_domain_pool(
    pool: DomainPromptPool,
    learned_prompt,
    stats: BatchStats,
    outcome: FissionOutcome,
    hp: Hyperparams,
    *,
    created_at: int = 0,
) -> DomainUpdateSummary:
    """Write one learned domain prompt back into the pool.

    A fissioned prompt appends a new (stats, prompt) entry, fusing the
    nearest pair by the class pool's single-linkage merge if that overflows
    the capacity; a matched prompt updates every candidate by the class
    pool's convex blend, statistics with coefficient ``hp.alpha_d * weight``
    and prompts with the raw weight, keys not renormalised.
    """
    _check_outcome(pool, outcome)
    if len(outcome) != 1:
        raise ValueError(f"a domain update takes a one-row outcome, got {len(outcome)} rows")
    learned = as_array(learned_prompt, (pool.prompt_dim,), "learned prompt")
    check_stats(stats, pool.feature_dim, "stats")

    summary = DomainUpdateSummary(fissioned=bool(outcome.fissioned[0]))
    stats_key = stats.concat()
    if summary.fissioned:
        pool._extend(stats_key[None, :], learned[None, :], [created_at])
        n = len(pool)
        summary.appended_index = n - 1
        if n > pool.capacity:
            iu, ju = upper_triangle(n).nonzero()
            groups = _single_linkage_groups(row_norms(pool.keys[iu] - pool.keys[ju]), n, n - 1)
            _merge_groups(pool, np.array(groups))
            # the one row that joined an earlier group, and that group
            j = next(r for r, g in enumerate(groups) if g != r)
            summary.fused_pair = (groups[j], j)
    else:
        idx = outcome.candidates
        inputs = np.concatenate((stats_key, learned))
        _blend_rows(pool, idx, hp.alpha_d, outcome.weights[:, None], inputs)
        summary.updated = idx.tolist()
    pool.version += 1
    return summary
