"""Deterministic numeric primitives shared by the adaptation engine.

Everything here is pure: softmax, entropy, batch statistics, similarity and
distance measures, plus a seeded random source. Vectors are 1-d float64 numpy
arrays with finite entries; matrices are 2-d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


def _all_finite(arr: np.ndarray) -> bool:
    # sum of finite values is finite unless it overflows; any NaN/Inf
    # propagates into the sum, so only an infinite sum needs the exact check
    return math.isfinite(float(arr.sum())) or bool(np.isfinite(arr).all())


def as_vector(values, dim: int | None = None, name: str = "vector") -> Vector:
    """Coerce to a finite 1-d float64 array, optionally checking its dimension."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(values, shape: tuple[int, int] | None = None, name: str = "matrix") -> Matrix:
    """Coerce to a finite 2-d float64 array, optionally checking its shape."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_sample_batch(samples, dim: int | None = None, name: str = "batch") -> Matrix:
    """Coerce a list of equal-length vectors (or a 2-d array) to a (b, d) matrix."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        arr = samples.astype(np.float64, copy=False)
    else:
        rows = list(samples)
        if not rows:
            raise ValueError(f"{name} is empty")
        arr = np.stack([as_vector(r, name=f"{name} row") for r in rows])
    if arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"{name} rows must have dimension {dim}, got {arr.shape[1]}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def softmax(logits) -> Vector:
    """Numerically stable softmax of a logit vector (max-subtraction trick)."""
    x = as_vector(logits, name="logits")
    if x.shape[0] < 1:
        raise ValueError("softmax needs dimension >= 1")
    shifted = x - x.max()
    e = np.exp(shifted)
    return e / e.sum()


def entropy(probs) -> float:
    """Shannon entropy -sum(p ln p) in nats, with 0 ln 0 taken as 0."""
    p = as_vector(probs, name="probs")
    if np.any(p < 0.0):
        raise ValueError("entropy requires nonnegative entries")
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"entropy requires entries summing to 1, got {total}")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass
class BatchStats:
    """Per-dimension mean and population standard deviation of a feature batch."""

    mu: Vector
    sigma: Vector

    def __post_init__(self):
        self.mu = as_vector(self.mu, name="mu")
        self.sigma = as_vector(self.sigma, dim=self.mu.shape[0], name="sigma")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma entries must be >= 0")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def concat(self) -> Vector:
        """The (mu, sigma) concatenation used as a matching key."""
        return np.concatenate((self.mu, self.sigma))

    def copy(self) -> "BatchStats":
        return BatchStats(self.mu.copy(), self.sigma.copy())


def batch_stats(features) -> BatchStats:
    """Mean and population standard deviation (divide by b) over a feature batch.

    Requires at least two vectors; one sample cannot define a spread. A finite
    batch whose mean or squared deviations exceed float64 is rejected by name.
    """
    arr = as_sample_batch(features, name="features")
    if arr.shape[0] < 2:
        raise ValueError(f"batch_stats needs >= 2 vectors, got {arr.shape[0]}")
    with np.errstate(over="ignore"):
        mu = arr.mean(axis=0)
        sigma = np.sqrt(((arr - mu) ** 2).mean(axis=0))
    if not (_all_finite(mu) and _all_finite(sigma)):
        raise ValueError("feature batch overflowed float64 in its mean or spread")
    return BatchStats(mu, sigma)


def cosine_sim(a, b) -> float:
    """Cosine similarity, clipped into [-1, 1]; undefined for zero-norm inputs."""
    va = as_vector(a, name="a")
    vb = as_vector(b, dim=va.shape[0], name="b")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


def euclid(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    va = as_vector(a, name="a")
    vb = as_vector(b, dim=va.shape[0], name="b")
    return float(np.linalg.norm(va - vb))


class SeededRng:
    """Deterministic random source; equal seeds give identical draw sequences.

    Built on PCG64, whose stream is stable across platforms and numpy
    releases. ``child(*key)`` derives an independent, reproducible substream,
    so one experiment seed can fan out to model construction, stream
    generation, and prompt initialization without draw-order coupling.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, *key: int) -> "SeededRng":
        return SeededRng(self.seed, self._key + key)

    def normal(self, size=None, *, loc: float = 0.0, scale: float = 1.0):
        return self._gen.normal(loc, scale, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, x):
        return self._gen.permutation(x)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self._key})"
