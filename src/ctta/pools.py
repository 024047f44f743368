"""Dual prompt pools and the knowledge-fission operations.

A pool is an ordered set of (key, prompt) rows with a capacity, stored as
arrays: ``keys`` ``(n, key_dim)``, ``prompts`` ``(n, prompt_dim)`` and
``created_at`` ``(n,)``. Fission matches a query key against every key under a
threshold: matches compose a prompt by softmax weighting, and a miss spawns a
fresh prompt instead. One outcome holds a whole batch of queries in compressed
sparse rows: per query a slice of ascending pool indices and their weights.
Fission never mutates a pool; all writes live in the fusion module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import BatchStats, Hyperparams, Matrix, SeededRng, Vector, as_array, check_keys, check_param
from .numerics import check_stats, row_norms


def _check_probability(arr: Matrix, name: str) -> None:
    """Each row of the matrix ``arr`` must be a distribution."""
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    sums = np.add.reduce(arr, 1)
    off = np.abs(sums - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"{name} must sum to 1, got {sums[off][0]}")


class _BasePool:
    """Row storage and snapshot schema of both pools; ``version`` counts mutations.

    A subclass gives ``KIND``, ``CAPACITY`` (the hyperparameter it stands for),
    ``WIDTH`` and ``KEY_FIELDS``, and checks key rows in ``_check_keys``.
    """

    def __init__(self, capacity: int, prompt_dim: int, width: int):
        # plain ints: the snapshot writer lays out only exact ints with repr
        self.capacity = int(check_param(self.CAPACITY, capacity))
        self.prompt_dim = int(check_param("prompt_dim", prompt_dim))
        width = int(check_param(self.WIDTH, width))
        setattr(self, self.WIDTH, width)
        self.keys: Matrix = np.empty((0, width * len(self.KEY_FIELDS)))
        self.prompts: Matrix = np.empty((0, self.prompt_dim))
        self.created_at: np.ndarray = np.empty(0, dtype=np.int64)
        self.version = 0

    def __len__(self) -> int:
        return self.keys.shape[0]

    def _extend(self, keys: Matrix, prompts: Matrix, created_at) -> None:
        """Append rows as given, the one way a pool grows; callers check rows and version."""
        self.keys = np.concatenate((self.keys, keys))
        self.prompts = np.concatenate((self.prompts, prompts))
        self.created_at = np.concatenate(
            (self.created_at, np.asarray(created_at, dtype=np.int64))
        )

    def to_dict(self) -> dict:
        """The snapshot ``from_dict`` loads: one entry per row, its key split by field."""
        w = getattr(self, self.WIDTH)
        entries = [
            {"prompt": p, "created_at": c}
            for p, c in zip(self.prompts.tolist(), self.created_at.tolist())
        ]
        # one store per key field and row: dict(zip(names, row)) costs more,
        # and np.hsplit costs more than the slices
        for i, name in enumerate(self.KEY_FIELDS):
            for entry, value in zip(entries, self.keys[:, i * w : (i + 1) * w].tolist()):
                entry[name] = value
        return {
            "kind": self.KIND,
            "capacity": self.capacity,
            "prompt_dim": self.prompt_dim,
            self.WIDTH: w,
            "version": self.version,
            "entries": entries,
        }

    @classmethod
    def from_dict(cls, doc: dict):
        """Load a ``to_dict`` snapshot: the one checked way rows enter a pool.

        ``check_keys`` checks the snapshot's keys and each entry's, and the
        constructor the dimensions. Each field is read as one matrix and
        checked once for all entries; a snapshot holds at most ``capacity``
        entries, and its counters and version are integers.
        """
        if not isinstance(doc, dict) or doc.get("kind") != cls.KIND:
            raise ValueError(f"snapshot is not a {cls.KIND} pool")
        names = ("kind", "capacity", "prompt_dim", cls.WIDTH, "version", "entries")
        check_keys(doc, "snapshot", names, names)
        pool = cls(doc["capacity"], doc["prompt_dim"], doc[cls.WIDTH])
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"entries must be a JSON array, got {entries!r}")
        if len(entries) > pool.capacity:
            raise ValueError(f"entries has {len(entries)} rows, more than capacity {pool.capacity}")
        entry_names = ("prompt", "created_at", *cls.KEY_FIELDS)
        for i, entry in enumerate(entries):
            check_keys(entry, f"entry {i}", entry_names, entry_names)
        width = getattr(pool, cls.WIDTH)
        keys = np.hstack([_field(entries, name, width) for name in cls.KEY_FIELDS])
        pool._check_keys(keys)
        created_at = [check_param("created_at", e["created_at"]) for e in entries]
        pool._extend(keys, _field(entries, "prompt", pool.prompt_dim), created_at)
        pool.version = check_param("version", doc["version"])
        return pool


def _field(entries: list, name: str, width: int) -> Matrix:
    """Field ``name`` of every snapshot entry as one ``(len(entries), width)`` matrix."""
    rows = [e[name] for e in entries] if entries else np.empty((0, width))
    return as_array(rows, (None, width), name)


class ClassPromptPool(_BasePool):
    """Ordered class prompts keyed by pseudo-labels, capacity enforced by fusion."""

    KIND, CAPACITY, WIDTH, KEY_FIELDS = "class", "n_c", "num_classes", ("key",)
    num_classes: int

    def _check_keys(self, keys: Matrix) -> None:
        _check_probability(keys, "key")


class DomainPromptPool(_BasePool):
    """Ordered domain prompts keyed by batch statistics, stored as (mu, sigma) rows."""

    KIND, CAPACITY, WIDTH, KEY_FIELDS = "domain", "n_d", "feature_dim", ("mu", "sigma")
    feature_dim: int

    def _check_keys(self, keys: Matrix) -> None:
        if (keys[:, self.feature_dim :] < 0.0).any():
            raise ValueError("sigma entries must be >= 0")


@dataclass
class FissionOutcome:
    """Result of matching q queries against a pool, one row per query.

    Row t's matched pool indices are ``candidates[offsets[t]:offsets[t + 1]]``
    in ascending order, with their softmax weights at the same positions of
    ``weights``; ``composed[t]`` is their weighted blend of prompts. A row
    that nothing cleared the threshold for has an empty slice and a freshly
    spawned prompt. The ``pool_version`` stamp lets fusion reject stale
    outcomes.
    """

    composed: Matrix
    offsets: np.ndarray
    candidates: np.ndarray
    weights: Vector
    pool_version: int = 0

    @property
    def fissioned(self) -> np.ndarray:
        return self.offsets[1:] == self.offsets[:-1]

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t: int) -> "FissionOutcome":
        """Row ``t`` as a one-row outcome."""
        if not -len(self) <= t < len(self):
            raise IndexError(f"row {t} of a {len(self)}-row outcome")
        t %= len(self)
        start, end = self.offsets[t], self.offsets[t + 1]
        return FissionOutcome(
            self.composed[t : t + 1],
            self.offsets[t : t + 2] - start,
            self.candidates[start:end],
            self.weights[start:end],
            self.pool_version,
        )


def _compose(
    pool: _BasePool, scores: Matrix, mask: np.ndarray, rng: SeededRng, hp: Hyperparams
) -> FissionOutcome:
    """Blend each row's candidate prompts by softmax(scores), or spawn one if none matched.

    Exponentials are taken for the whole batch at once. Rows with the same
    candidate count k form one group, never padded: its normalisers are one
    row sum of a (g, k) block and its blends one stacked vector-matrix
    product, both with the bits of a one-row call. Fresh prompts come from one
    draw in row order, which equals one draw per row (tests/test_bitfacts.py).

    This is one of three softmax forms. ``model._row_softmax`` normalises
    whole rows in one call and ``objective._forward_state`` takes a
    log-softmax; summing each row's candidates on its own gives other bits.
    """
    flat = mask.ravel().nonzero()[0]
    cand = flat % mask.shape[1]
    counts = np.add.reduce(mask, 1)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    fresh = counts == 0
    matched = counts.nonzero()[0]
    composed = np.empty((len(counts), pool.prompt_dim))
    if fresh.any():
        composed[fresh] = rng.normal(size=(int(fresh.sum()), pool.prompt_dim)) * hp.init_scale
    weights = np.empty(flat.size)
    if matched.size:
        top = np.where(mask, scores, -np.inf)
        shifted = scores - np.maximum.reduce(top, 1, keepdims=True)
        num = np.exp(shifted.take(flat))
        per_row = counts[matched]
        for k in set(per_row.tolist()):
            rows = matched[per_row == k]
            at = offsets[rows][:, None] + np.arange(k)
            e = num[at]
            w = e / np.add.reduce(e, 1)[:, None]
            weights[at] = w
            composed[rows] = np.matmul(w[:, None, :], pool.prompts.take(cand[at], axis=0))[:, 0]
    return FissionOutcome(composed, offsets, cand, weights, pool.version)


def fission_class_batch(
    pool: ClassPromptPool, pseudo_labels, hp: Hyperparams, rng: SeededRng
) -> FissionOutcome:
    """Match each pseudo-label against the class pool by cosine similarity.

    Entries with similarity strictly above ``hp.gamma_c`` become candidates
    and are blended with weights softmax(similarity / hp.tau_c); with no
    candidate (including the empty-pool initial state) a fresh prompt is
    spawned. The pseudo-labels are validated once for the whole batch; the
    outcome has one row per sample, in sample order.
    """
    labels = as_array(pseudo_labels, (None, pool.num_classes), "pseudo_label")
    _check_probability(labels, "pseudo_label")
    keys, col = pool.keys, labels[:, :, None]
    # Stacked products: slice t is keys @ y and y @ y with their one-row bits,
    # which a row of labels @ keys.T lacks (tests/test_bitfacts.py). Compaction's
    # cosine (fusion) takes one product of normalised keys; it has other bits.
    dots = np.matmul(keys[None], col)[:, :, 0]
    sq = np.matmul(labels[:, None, :], col)[:, 0, 0]
    sims = dots / (row_norms(keys) * np.sqrt(sq)[:, None])
    return _compose(pool, sims / hp.tau_c, sims > hp.gamma_c, rng, hp)


def fission_domain(
    pool: DomainPromptPool, stats: BatchStats, hp: Hyperparams, rng: SeededRng
) -> FissionOutcome:
    """Match a batch-statistics key against the domain pool by distance.

    Entries with Euclidean distance (over the concatenated mean and std)
    strictly below ``hp.gamma_d`` become candidates, weighted by
    softmax(-distance / hp.tau_d); otherwise a fresh prompt is spawned, which
    also covers the very first test batch. The outcome has one row.
    """
    check_stats(stats, pool.feature_dim, "stats")
    dists = row_norms(pool.keys - stats.concat())[None, :]
    return _compose(pool, -dists / hp.tau_d, dists < hp.gamma_d, rng, hp)
