"""Knowledge fusion: writing learned prompts back into the pools.

Class-pool updates are entropy-gated and applied sample by sample. Overflow
triggers a single-linkage compaction on cosine distances between keys:
Kruskal's algorithm takes edges in (weight, i, j) order from a stable argsort
of the row-major upper triangle and stops once the pool's capacity of
components remains, which cuts the heaviest edges of the minimum spanning
tree. Each group of more than one row merges into its mean; groups are
numbered, and the merged rows ordered, by their first member. Domain-pool
updates blend keys and prompts convexly; overflow fuses the nearest entry
pair. All mutation of pools happens here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import BatchStats, Vector, as_vector
from .pools import ClassPromptPool, DomainPromptPool, FissionOutcome


class PoolVersionError(RuntimeError):
    """A fission outcome is stale: the pool mutated after it was computed."""


@dataclass
class ClassUpdateRecord:
    """Per-sample inputs to the class-pool update."""

    learned_prompt: Vector
    prediction: Vector
    pseudo_label: Vector
    outcome: FissionOutcome

    def __post_init__(self):
        self.learned_prompt = as_vector(self.learned_prompt, name="learned prompt")
        self.prediction = as_vector(self.prediction, name="prediction")
        self.pseudo_label = as_vector(self.pseudo_label, name="pseudo label")


@dataclass
class DomainUpdateRecord:
    """Per-batch inputs to the domain-pool update."""

    learned_prompt: Vector
    batch_stats: BatchStats
    outcome: FissionOutcome

    def __post_init__(self):
        self.learned_prompt = as_vector(self.learned_prompt, name="learned prompt")
        if not isinstance(self.batch_stats, BatchStats):
            raise ValueError("batch_stats must be BatchStats")


@dataclass
class MstClustering:
    """Grouping produced by compaction: pool index -> group id."""

    assignment: dict[int, int]
    num_groups: int


@dataclass
class ClassUpdateSummary:
    skipped: list[int] = field(default_factory=list)
    appended: list[int] = field(default_factory=list)
    updated: list[int] = field(default_factory=list)
    compaction: MstClustering | None = None


@dataclass
class DomainUpdateSummary:
    fissioned: bool = False
    appended_index: int | None = None
    updated: list[int] = field(default_factory=list)
    fused_pair: tuple[int, int] | None = None


def _mean_rows(rows) -> Vector:
    """Arithmetic mean with a fixed sequential accumulation order."""
    acc = rows[0].copy()
    for r in rows[1:]:
        acc += r
    return acc / len(rows)


def _check_outcome(pool, outcome: FissionOutcome) -> None:
    if outcome.pool_version != pool.version:
        raise PoolVersionError(
            f"outcome computed at pool version {outcome.pool_version}, "
            f"pool is now at {pool.version}"
        )
    if outcome.weights is not None:
        for i in outcome.weights:
            if not 0 <= i < len(pool):
                raise PoolVersionError(f"outcome references missing pool index {i}")


def _candidate_arrays(outcome: FissionOutcome) -> tuple[list[int], np.ndarray]:
    idx = sorted(outcome.weights)
    return idx, np.array([outcome.weights[i] for i in idx])


def update_class_pool(
    pool: ClassPromptPool,
    records: list[ClassUpdateRecord],
    gamma_h: float,
    alpha_c: float,
    *,
    mode: str = "sequential",
    created_at: int = 0,
) -> ClassUpdateSummary:
    """Write a batch of learned class prompts back into the pool.

    Samples whose prediction entropy exceeds ``gamma_h`` are skipped entirely.
    Fissioned samples append a (pseudo-label, learned prompt) entry; matched
    samples update every candidate entry convexly, keys with coefficient
    ``alpha_c * weight`` (renormalized to sum 1) and prompts with the raw
    weight. If the pool ends above capacity, a spanning-tree compaction
    merges it down to exactly the capacity.

    ``mode`` selects between the default per-sample sequential update and the
    batch-averaged variant that blends all kept samples against the pool
    state at batch start.
    """
    if gamma_h < 0:
        raise ValueError("gamma_h must be >= 0")
    if not 0.0 <= alpha_c <= 1.0:
        raise ValueError("alpha_c must lie in [0, 1]")
    if mode not in ("sequential", "averaged"):
        raise ValueError(f"unknown class update mode {mode!r}")
    for rec in records:
        _check_outcome(pool, rec.outcome)

    if records:
        preds = np.stack([rec.prediction for rec in records])
        ent = -(preds * np.log(np.where(preds > 0.0, preds, 1.0))).sum(axis=1)
        gate = ent > gamma_h
    else:
        gate = np.zeros(0, dtype=bool)

    summary = ClassUpdateSummary()
    touched: set[int] = set()
    fissioned: list[ClassUpdateRecord] = []
    blended: list[ClassUpdateRecord] = []
    keys, prompts = pool.keys, pool.prompts
    for t, rec in enumerate(records):
        if gate[t]:
            summary.skipped.append(t)
        elif rec.outcome.fissioned:
            summary.appended.append(len(pool) + len(fissioned))
            fissioned.append(rec)
        elif mode == "averaged":
            blended.append(rec)
            touched.update(rec.outcome.weights)
        else:
            idx, w = _candidate_arrays(rec.outcome)
            coeff = alpha_c * w
            new_keys = coeff[:, None] * rec.prediction + (1.0 - coeff)[:, None] * keys[idx]
            keys[idx] = new_keys / new_keys.sum(axis=1, keepdims=True)
            prompts[idx] = w[:, None] * rec.learned_prompt + (1.0 - w)[:, None] * prompts[idx]
            touched.update(idx)
    if mode == "averaged":
        # Each touched row blends every kept sample against its own batch-start
        # value, so the rows can be rewritten one at a time in place.
        for i in sorted(touched):
            key_terms = []
            prompt_terms = []
            for rec in blended:
                w = rec.outcome.weights.get(i, 0.0)
                cf = alpha_c * w
                key_terms.append(cf * rec.prediction + (1.0 - cf) * keys[i])
                prompt_terms.append(w * rec.learned_prompt + (1.0 - w) * prompts[i])
            new_key = _mean_rows(key_terms)
            keys[i] = new_key / new_key.sum()
            prompts[i] = _mean_rows(prompt_terms)
    if fissioned:
        pool._extend(
            np.array([rec.pseudo_label for rec in fissioned]),
            np.array([rec.learned_prompt for rec in fissioned]),
            [created_at] * len(fissioned),
        )

    summary.updated = sorted(touched)
    if len(pool) > pool.capacity:
        summary.compaction = _compact_class_pool(pool)
    pool.bump()
    return summary


def _single_linkage_groups(dist: np.ndarray, num_groups: int) -> list[int]:
    """Kruskal-style union of ascending edges until ``num_groups`` components remain.

    Equivalent to building the MST and deleting its heaviest edges. The upper
    triangle is laid out row-major, i.e. in (i, j) order, so a stable argsort
    of its weights visits edges in (weight, i, j) order, ties included. The
    union stops as soon as ``num_groups`` components remain, usually after a
    handful of edges. Groups are numbered by their first member.
    """
    n = dist.shape[0]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    iu, ju = np.triu_indices(n, 1)
    order = np.argsort(dist[iu, ju], kind="stable")
    components = n
    for e in order:
        if components <= num_groups:
            break
        ri, rj = find(int(iu[e])), find(int(ju[e]))
        if ri != rj:
            parent[ri] = rj
            components -= 1
    group_of_root: dict[int, int] = {}
    assignment = []
    for i in range(n):
        r = find(i)
        if r not in group_of_root:
            group_of_root[r] = len(group_of_root)
        assignment.append(group_of_root[r])
    return assignment


def _compact_class_pool(pool: ClassPromptPool) -> MstClustering:
    n = len(pool)
    if n <= pool.capacity:
        raise ValueError("compaction requires pool size above capacity")
    keys, prompts, created = pool.keys, pool.prompts, pool.created_at
    normed = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    dist = 1.0 - np.clip(normed @ normed.T, -1.0, 1.0)
    assignment = _single_linkage_groups(dist, pool.capacity)
    members: list[list[int]] = [[] for _ in range(pool.capacity)]
    for i, g in enumerate(assignment):
        members[g].append(i)
    # Singletons keep their row as is; only the at most n - capacity merged
    # groups need a mean.
    first = [group[0] for group in members]
    merged_keys, merged_prompts, merged_created = keys[first], prompts[first], created[first]
    for g, group in enumerate(members):
        if len(group) > 1:
            merged_keys[g] = _mean_rows(keys[group])
            merged_prompts[g] = _mean_rows(prompts[group])
            merged_created[g] = created[group].min()
    merged_keys /= merged_keys.sum(axis=1, keepdims=True)
    pool.keys, pool.prompts, pool.created_at = merged_keys, merged_prompts, merged_created
    return MstClustering(dict(enumerate(assignment)), pool.capacity)


def mst_compact(pool: ClassPromptPool) -> MstClustering:
    """Merge an over-capacity class pool down to capacity via single linkage."""
    clustering = _compact_class_pool(pool)
    pool.bump()
    return clustering


def update_domain_pool(
    pool: DomainPromptPool,
    record: DomainUpdateRecord,
    alpha_d: float,
    *,
    created_at: int = 0,
) -> DomainUpdateSummary:
    """Write one learned domain prompt back into the pool.

    A fissioned prompt appends a new (stats, prompt) entry, fusing the
    nearest pair if that overflows the capacity; a matched prompt updates
    every candidate convexly, statistics with coefficient ``alpha_d * weight``
    and prompts with the raw weight.
    """
    if not 0.0 <= alpha_d <= 1.0:
        raise ValueError("alpha_d must lie in [0, 1]")
    _check_outcome(pool, record.outcome)
    if record.batch_stats.dim != pool.feature_dim:
        raise ValueError("record stats dimension must match pool feature_dim")

    summary = DomainUpdateSummary(fissioned=record.outcome.fissioned)
    stats_key = record.batch_stats.concat()
    if record.outcome.fissioned:
        pool._extend(stats_key[None, :], record.learned_prompt[None, :], [created_at])
        summary.appended_index = len(pool) - 1
        if len(pool) > pool.capacity:
            summary.fused_pair = _fuse_core(pool)
    else:
        idx, w = _candidate_arrays(record.outcome)
        cf = alpha_d * w
        pool.keys[idx] = cf[:, None] * stats_key + (1.0 - cf)[:, None] * pool.keys[idx]
        pool.prompts[idx] = (
            w[:, None] * record.learned_prompt + (1.0 - w)[:, None] * pool.prompts[idx]
        )
        summary.updated = list(idx)
    pool.bump()
    return summary


def _fuse_core(pool: DomainPromptPool) -> tuple[int, int]:
    n = len(pool)
    if n < 2:
        raise ValueError("nearest-pair fusion needs at least 2 entries")
    keys = pool.keys
    iu, ju = np.triu_indices(n, k=1)
    dists = np.linalg.norm(keys[iu] - keys[ju], axis=1)
    m = int(np.argmin(dists))
    i, j = int(iu[m]), int(ju[m])
    keys[i] = _mean_rows(keys[[i, j]])
    pool.prompts[i] = _mean_rows(pool.prompts[[i, j]])
    pool.created_at[i] = min(pool.created_at[i], pool.created_at[j])
    pool.keys = np.delete(keys, j, axis=0)
    pool.prompts = np.delete(pool.prompts, j, axis=0)
    pool.created_at = np.delete(pool.created_at, j)
    return (i, j)


def fuse_nearest_pair(pool: DomainPromptPool) -> tuple[int, int]:
    """Merge the closest entry pair by key distance; ties take the lowest (i, j)."""
    pair = _fuse_core(pool)
    pool.bump()
    return pair
