"""Deterministic numeric primitives shared by the adaptation engine.

Everything here is pure: array coercion and checks, the parameter table
with its one validator and the ``Hyperparams`` record it checks, batch
statistics, plus a seeded random source. Vectors are 1-d float64 numpy
arrays with finite entries; matrices are 2-d.
"""
from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


def _all_finite(arr: np.ndarray) -> bool:
    # exact and silent: a fast sum would overflow, and warn, on large finite values
    return bool(np.isfinite(arr).all())


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


def as_matrix(
    values, shape: tuple[int | None, int | None] | None = None, name: str = "matrix", min_rows: int = 0
) -> Matrix:
    """Coerce to a finite 2-d float64 array, optionally checking its shape.

    A ``None`` in ``shape`` leaves that axis unchecked; a batch of samples is
    ``shape=(None, dim)`` with ``min_rows`` of at least 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    rows, cols = shape or (None, None)
    if (rows is not None and arr.shape[0] != rows) or (cols is not None and arr.shape[1] != cols):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.shape[0] < min_rows:
        raise ValueError(f"{name} has {arr.shape[0]} rows, needs at least {min_rows}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


# The type and range of every hyperparameter, stated here and nowhere else.
# A range is an interval over the extended reals, or the tuple of allowed values.
HYPERPARAMS: dict[str, tuple[type, str | tuple[str, ...] | None]] = {
    "gamma_d": (numbers.Real, "(0, inf]"),
    "gamma_c": (numbers.Real, "(-1, 1)"),
    "gamma_h": (numbers.Real, "[0, inf]"),
    "alpha_d": (numbers.Real, "[0, 1]"),
    "alpha_c": (numbers.Real, "[0, 1]"),
    "tau_d": (numbers.Real, "(0, inf]"),
    "tau_c": (numbers.Real, "(0, inf]"),
    "a": (numbers.Real, None),
    "alpha_std": (numbers.Real, None),
    "n_d": (numbers.Integral, "[1, inf]"),
    "n_c": (numbers.Integral, "[1, inf]"),
    "lr_domain": (numbers.Real, "[0, inf]"),
    "lr_class": (numbers.Real, "[0, inf]"),
    "k_steps": (numbers.Integral, "[0, inf]"),
    "init_scale": (numbers.Real, "[0, inf]"),
    "softmax_over_all": (bool, None),
    "class_update": (str, ("sequential", "averaged")),
}
# Stream configuration, separation certificate, world, pool snapshot and
# gradient check fields, under the same rule. Each item of ``domain_order``
# is checked as ``domain_order``, and each entry's ``created_at`` as
# ``created_at``; ``theta`` serves the config, the certificate and
# ``make_separated``'s target.
STREAM_PARAMS: dict[str, tuple[type, str | tuple[str, ...] | None]] = {
    "domain_order": (numbers.Integral, "[0, inf]"),
    "batches_per_domain": (numbers.Integral, "[1, inf]"),
    "batch_size": (numbers.Integral, "[2, inf]"),
    "input_dim": (numbers.Integral, "[1, inf]"),
    "num_classes": (numbers.Integral, "[1, inf]"),
    "seed": (numbers.Integral, "[0, inf]"),
    "theta": (numbers.Real, "(0, inf]"),
    "max_intra": (numbers.Real, "[0, inf]"),
    "min_inter": (numbers.Real, "[0, inf]"),
    "probe_batches": (numbers.Integral, "[20, inf]"),  # per domain, to certify a separation
    "noise_std": (numbers.Real, "[0, inf)"),
    "feature_dim": (numbers.Integral, "[1, inf]"),
    "class_mean_scale": (numbers.Real, "(0, inf)"),
    "source_samples": (numbers.Integral, "[2, inf]"),  # source statistics need a spread
    "shift_scale": (numbers.Real, "(-inf, inf)"),
    "prompt_dim": (numbers.Integral, "[1, inf]"),
    "created_at": (numbers.Integral, "[-9223372036854775808, 9223372036854775808)"),  # int64
    "version": (numbers.Integral, "[0, inf]"),
    "num_configs": (numbers.Integral, "[1, inf]"),
    "step": (numbers.Real, "(0, inf)"),
    "tolerance": (numbers.Real, "(0, inf)"),
}
_PARAMS = {**HYPERPARAMS, **STREAM_PARAMS}
_BOUNDS = {  # (lo, hi) of each interval
    k: tuple(map(float, r[1:-1].split(","))) for k, (_, r) in _PARAMS.items() if isinstance(r, str)
}


def check_param(name: str, value):
    """Return ``value`` if it has the type and range the table gives ``name``.

    The table is ``HYPERPARAMS`` plus ``STREAM_PARAMS``. A bool is a flag and
    nothing else, not an Integral or a Real.
    """
    kind, allowed = _PARAMS[name]
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if ok and isinstance(allowed, tuple):
        ok = value in allowed
    elif ok and allowed is not None:
        lo, hi = _BOUNDS[name]
        ok = (lo < value if allowed[0] == "(" else lo <= value) and (
            value < hi if allowed[-1] == ")" else value <= hi
        )
    if not ok:
        rule = kind.__name__ + ("" if allowed is None else f" in {allowed}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


@dataclass(frozen=True)
class Hyperparams:
    """Every tunable constant of the engine, with its default value.

    Each value must have the type and range ``HYPERPARAMS`` gives it. The
    record is checked once, here; the stages read its fields unchecked.
    """

    gamma_d: float = 25.0
    gamma_c: float = 0.005
    gamma_h: float = 2.0
    alpha_d: float = 0.1
    alpha_c: float = 0.1
    tau_d: float = 3.0
    tau_c: float = 1.0
    a: float = 3.0
    alpha_std: float = 1.0
    n_d: int = 20
    n_c: int = 100
    lr_domain: float = 0.1
    lr_class: float = 0.001
    k_steps: int = 1
    init_scale: float = 0.01
    softmax_over_all: bool = False
    class_update: str = "sequential"

    def __post_init__(self):
        for f in fields(self):
            check_param(f.name, getattr(self, f.name))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "Hyperparams":
        return record_from_dict(cls, doc, "hyperparameter")


def record_from_dict(cls, doc: dict, what: str):
    """Build the dataclass ``cls`` from ``doc``, a dict as a JSON object loads,
    naming any unknown key and any missing key that has no default; the
    values are checked by ``cls``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    return cls(**doc)


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


def check_stats(stats, dim: int, name: str) -> None:
    """``stats`` must be ``BatchStats`` over ``dim`` features; errors say ``name``."""
    if not isinstance(stats, BatchStats):
        raise ValueError(f"{name} must be BatchStats")
    if stats.dim != dim:
        raise ValueError(f"{name} must have dimension {dim} (the feature dimension), got {stats.dim}")


def moments(arr: Matrix) -> tuple[Vector, Matrix, Vector]:
    """Column mean, centred rows and population standard deviation of ``arr``."""
    b = arr.shape[0]
    # sum / b is mean's own arithmetic, bit for bit (tests/test_bitfacts.py, fact 6)
    mu = arr.sum(axis=0) / b
    centered = arr - mu
    return mu, centered, np.sqrt((centered ** 2).sum(axis=0) / b)


def batch_stats(features) -> BatchStats:
    """Mean and population standard deviation (divide by b) over a feature batch.

    Requires at least two vectors; one sample cannot define a spread. A finite
    batch whose mean or squared deviations exceed float64 is rejected by name.
    """
    arr = as_matrix(features, name="features", min_rows=2)
    with np.errstate(over="ignore"):
        mu, _, sigma = moments(arr)
    if not (_all_finite(mu) and _all_finite(sigma)):
        raise ValueError("feature batch overflowed float64 in its mean or spread")
    return BatchStats(mu, sigma)


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

    def normal(self, size=None, *, scale: float = 1.0):
        return self._gen.normal(0.0, scale, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, x):
        return self._gen.permutation(x)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self._key})"
