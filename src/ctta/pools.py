"""Dual prompt pools and the knowledge-fission operations.

A pool is an ordered set of (key, prompt) rows with a capacity, stored as
arrays: ``keys`` ``(n, key_dim)``, ``prompts`` ``(n, prompt_dim)`` and
``created_at`` ``(n,)``. Fission matches a query key against every key under a
threshold: matches compose a prompt by softmax weighting, and a miss spawns a
fresh prompt instead. Fission never mutates a pool; all writes live in the
fusion module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import BatchStats, Matrix, SeededRng, Vector, as_vector


def _check_probability(vec: Vector, name: str) -> None:
    if float(vec.min()) < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if abs(float(vec.sum()) - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, got {vec.sum()}")


class _BasePool:
    """Row storage shared by both pools; ``version`` counts mutations."""

    def __init__(self, capacity: int, prompt_dim: int, key_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if prompt_dim < 1:
            raise ValueError("prompt_dim must be >= 1")
        self.capacity = int(capacity)
        self.prompt_dim = int(prompt_dim)
        self.keys: Matrix = np.empty((0, key_dim))
        self.prompts: Matrix = np.empty((0, self.prompt_dim))
        self.created_at: np.ndarray = np.empty(0, dtype=np.int64)
        self.version = 0

    def __len__(self) -> int:
        return self.keys.shape[0]

    def bump(self) -> None:
        """Record a mutation by advancing the version."""
        self.version += 1

    def _extend(self, keys: Matrix, prompts: Matrix, created_at) -> None:
        """Append rows as given; callers validate and bump."""
        self.keys = np.concatenate((self.keys, keys))
        self.prompts = np.concatenate((self.prompts, prompts))
        self.created_at = np.concatenate(
            (self.created_at, np.asarray(created_at, dtype=np.int64))
        )

    def _append_checked(self, key: Vector, prompt, created_at: int, name: str) -> int:
        prompt = as_vector(prompt, dim=self.prompt_dim, name=f"{name} prompt")
        self._extend(key[None, :], prompt[None, :], [created_at])
        self.bump()
        return len(self) - 1


class ClassPromptPool(_BasePool):
    """Ordered class prompts keyed by pseudo-labels, capacity enforced by fusion."""

    def __init__(self, capacity: int, prompt_dim: int, num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        super().__init__(capacity, prompt_dim, num_classes)
        self.num_classes = int(num_classes)

    def append(self, key, prompt, created_at: int = 0) -> int:
        """Add a (probability key, prompt) row; returns its index."""
        key = as_vector(key, dim=self.num_classes, name="class key")
        _check_probability(key, "class key")
        return self._append_checked(key, prompt, created_at, "class")

    def to_dict(self) -> dict:
        return {
            "kind": "class",
            "capacity": self.capacity,
            "prompt_dim": self.prompt_dim,
            "num_classes": self.num_classes,
            "version": self.version,
            "entries": [
                {"key": k, "prompt": p, "created_at": c}
                for k, p, c in zip(
                    self.keys.tolist(), self.prompts.tolist(), self.created_at.tolist()
                )
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ClassPromptPool":
        if doc.get("kind") != "class":
            raise ValueError("snapshot is not a class pool")
        pool = cls(doc["capacity"], doc["prompt_dim"], doc["num_classes"])
        for e in doc["entries"]:
            pool.append(e["key"], e["prompt"], e["created_at"])
        pool.version = doc["version"]
        return pool


class DomainPromptPool(_BasePool):
    """Ordered domain prompts keyed by batch statistics, stored as (mu, sigma) rows."""

    def __init__(self, capacity: int, prompt_dim: int, feature_dim: int):
        if feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        super().__init__(capacity, prompt_dim, 2 * feature_dim)
        self.feature_dim = int(feature_dim)

    def append(self, key, prompt, created_at: int = 0) -> int:
        """Add a row whose key is the concatenation (mu, sigma); returns its index."""
        key = as_vector(key, dim=2 * self.feature_dim, name="domain key")
        if np.any(key[self.feature_dim :] < 0.0):
            raise ValueError("domain key sigma entries must be >= 0")
        return self._append_checked(key, prompt, created_at, "domain")

    def to_dict(self) -> dict:
        f = self.feature_dim
        return {
            "kind": "domain",
            "capacity": self.capacity,
            "prompt_dim": self.prompt_dim,
            "feature_dim": f,
            "version": self.version,
            "entries": [
                {"mu": k[:f], "sigma": k[f:], "prompt": p, "created_at": c}
                for k, p, c in zip(
                    self.keys.tolist(), self.prompts.tolist(), self.created_at.tolist()
                )
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DomainPromptPool":
        if doc.get("kind") != "domain":
            raise ValueError("snapshot is not a domain pool")
        pool = cls(doc["capacity"], doc["prompt_dim"], doc["feature_dim"])
        for e in doc["entries"]:
            pool.append(BatchStats(e["mu"], e["sigma"]).concat(), e["prompt"], e["created_at"])
        pool.version = doc["version"]
        return pool


@dataclass
class FissionOutcome:
    """Result of matching one query against a pool.

    Either ``weights`` maps candidate pool indices to softmax weights and
    ``composed_prompt`` is their convex combination, or nothing cleared the
    threshold and ``composed_prompt`` is a freshly spawned prompt. The
    ``pool_version`` stamp lets fusion reject stale outcomes.
    """

    composed_prompt: Vector
    weights: dict[int, float] | None
    fissioned: bool
    pool_version: int = 0

    def __post_init__(self):
        self.composed_prompt = as_vector(self.composed_prompt, name="composed prompt")
        if self.fissioned != (self.weights is None):
            raise ValueError("fissioned flag must mirror absent weights")
        if self.weights is not None and not self.weights:
            raise ValueError("weights present but empty")


def _fresh_prompt(prompt_dim: int, rng: SeededRng, init_scale: float) -> Vector:
    if init_scale < 0:
        raise ValueError("init_scale must be >= 0")
    draw = rng.normal(size=prompt_dim)
    return draw * init_scale


def _candidate_weights(
    scores: Vector, candidates: np.ndarray, *, softmax_over_all: bool
) -> Vector:
    sel = scores[candidates]
    if softmax_over_all:
        shifted = scores - scores.max()
        return np.exp(shifted[candidates]) / np.exp(shifted).sum()
    shifted = sel - sel.max()
    e = np.exp(shifted)
    return e / e.sum()


def _compose(
    pool: _BasePool,
    scores: Vector,
    candidates: np.ndarray,
    rng: SeededRng,
    init_scale: float,
    softmax_over_all: bool,
) -> FissionOutcome:
    """Blend the candidate prompts by softmax(scores), or spawn one if none matched."""
    if candidates.size == 0:
        return FissionOutcome(
            _fresh_prompt(pool.prompt_dim, rng, init_scale), None, True, pool.version
        )
    w = _candidate_weights(scores, candidates, softmax_over_all=softmax_over_all)
    composed = w @ pool.prompts[candidates]
    weights = dict(zip(candidates.tolist(), w.tolist()))
    return FissionOutcome(composed, weights, False, pool.version)


def _check_class_thresholds(gamma_c: float, tau_c: float) -> None:
    if not -1.0 < gamma_c < 1.0:
        raise ValueError("gamma_c must lie in (-1, 1)")
    if tau_c <= 0:
        raise ValueError("tau_c must be > 0")


def _match_class(
    pool: ClassPromptPool,
    norms: Vector,
    pseudo_label,
    gamma_c: float,
    tau_c: float,
    rng: SeededRng,
    init_scale: float,
    softmax_over_all: bool,
) -> FissionOutcome:
    """The matching kernel shared by single-sample and batch class fission."""
    y = as_vector(pseudo_label, dim=pool.num_classes, name="pseudo_label")
    _check_probability(y, "pseudo_label")
    sims = (pool.keys @ y) / (norms * math.sqrt(y @ y))
    candidates = np.flatnonzero(sims > gamma_c)
    return _compose(pool, sims / tau_c, candidates, rng, init_scale, softmax_over_all)


def fission_class(
    pool: ClassPromptPool,
    pseudo_label,
    gamma_c: float,
    tau_c: float,
    rng: SeededRng,
    init_scale: float,
    *,
    softmax_over_all: bool = False,
) -> FissionOutcome:
    """Match one pseudo-label against the class pool by cosine similarity.

    Entries with similarity strictly above ``gamma_c`` become candidates and
    are blended with weights softmax(similarity / tau_c); with no candidate
    (including the empty-pool initial state) a fresh prompt is spawned.
    """
    _check_class_thresholds(gamma_c, tau_c)
    norms = np.linalg.norm(pool.keys, axis=1)
    return _match_class(
        pool, norms, pseudo_label, gamma_c, tau_c, rng, init_scale, softmax_over_all
    )


def fission_class_batch(
    pool: ClassPromptPool,
    pseudo_labels,
    gamma_c: float,
    tau_c: float,
    rng: SeededRng,
    init_scale: float,
    *,
    softmax_over_all: bool = False,
) -> list[FissionOutcome]:
    """Per-sample class fission; outcome order matches sample order."""
    _check_class_thresholds(gamma_c, tau_c)
    norms = np.linalg.norm(pool.keys, axis=1)
    return [
        _match_class(pool, norms, y, gamma_c, tau_c, rng, init_scale, softmax_over_all)
        for y in pseudo_labels
    ]


def fission_domain(
    pool: DomainPromptPool,
    stats: BatchStats,
    gamma_d: float,
    tau_d: float,
    rng: SeededRng,
    init_scale: float,
    *,
    softmax_over_all: bool = False,
) -> FissionOutcome:
    """Match a batch-statistics key against the domain pool by distance.

    Entries with Euclidean distance (over the concatenated mean and std)
    strictly below ``gamma_d`` become candidates, weighted by
    softmax(-distance / tau_d); otherwise a fresh prompt is spawned, which
    also covers the very first test batch.
    """
    if gamma_d <= 0:
        raise ValueError("gamma_d must be > 0")
    if tau_d <= 0:
        raise ValueError("tau_d must be > 0")
    if not isinstance(stats, BatchStats):
        raise ValueError("stats must be BatchStats")
    if stats.dim != pool.feature_dim:
        raise ValueError("stats dimension must match pool feature_dim")
    dists = np.linalg.norm(pool.keys - stats.concat(), axis=1)
    candidates = np.flatnonzero(dists < gamma_d)
    return _compose(pool, -dists / tau_d, candidates, rng, init_scale, softmax_over_all)
