"""Deterministic numeric primitives shared by the adaptation engine.

Everything here is pure: array coercion and checks, the parameter table
with its one validator and the ``Hyperparams`` record it checks, batch
statistics, plus a seeded random source. Vectors are 1-d float64 numpy
arrays with finite entries; matrices are 2-d. On the batch path, reductions
call their ufunc's ``reduce`` and index helpers their array methods, not numpy's
costlier Python wrappers of the same C kernels (tests/test_bitfacts.py, fact 10).
"""
from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


def _all_finite(arr: np.ndarray) -> bool:
    # exact and silent: a fast sum would overflow, and warn, on large finite
    # values; counting skips the ufunc machinery of ``.all()``
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def is_number(value, kind=numbers.Real) -> bool:
    """The one number rule of scalars and array items: an instance of
    ``kind`` that is not a bool, so never a string or a JSON ``true``."""
    return isinstance(value, kind) and not isinstance(value, bool)


def as_array(values, shape: tuple, name: str, min_rows: int = 0) -> np.ndarray:
    """Coerce to a finite float64 array of ``len(shape)`` dimensions.

    A ``None`` in ``shape`` leaves that axis unchecked; a batch of samples is
    ``shape=(None, dim)`` with ``min_rows`` of at least 1. An ndarray needs a
    float or integer dtype; any other input, such as JSON rows, must hold
    items that pass ``is_number``.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "fiu":
            raise ValueError(f"{name} must be an array of numbers, got dtype {values.dtype}")
        arr = np.asarray(values, dtype=np.float64)
    else:
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:  # not numbers, ragged or past float64
            raise ValueError(f"{name} must be an array of numbers: {err}") from None
        for item in np.asarray(values, dtype=object).ravel():
            if not is_number(item):  # numpy reads "0.5" and True as numbers
                raise ValueError(f"{name} must be an array of numbers, got {item!r}")
    if arr.ndim != len(shape):
        raise ValueError(f"{name} must be {len(shape)}-d, got shape {arr.shape}")
    for want, got in zip(shape, arr.shape):
        if want is not None and want != got:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.shape[0] < min_rows:
        raise ValueError(f"{name} has {arr.shape[0]} rows, needs at least {min_rows}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


# The type and range of every hyperparameter, stated here and nowhere else.
# A range is an interval over the extended reals.
HYPERPARAMS: dict[str, tuple[type, str]] = {
    "gamma_d": (numbers.Real, "(0, inf]"),
    "gamma_c": (numbers.Real, "(-1, 1)"),
    "gamma_h": (numbers.Real, "[0, inf]"),
    "alpha_d": (numbers.Real, "[0, 1]"),
    "alpha_c": (numbers.Real, "[0, 1]"),
    "tau_d": (numbers.Real, "(0, inf]"),
    "tau_c": (numbers.Real, "(0, inf]"),
    "a": (numbers.Real, "[0, inf)"),
    "alpha_std": (numbers.Real, "[0, inf)"),
    "n_d": (numbers.Integral, "[1, inf]"),
    "n_c": (numbers.Integral, "[1, inf]"),
    "lr_domain": (numbers.Real, "[0, inf)"),
    "lr_class": (numbers.Real, "[0, inf)"),
    "k_steps": (numbers.Integral, "[0, inf]"),
    "init_scale": (numbers.Real, "[0, inf)"),
}
# Stream configuration, separation certificate, world, pool snapshot and
# gradient check fields, under the same rule. Each item of ``domain_order``
# is checked as ``domain_order``, and each entry's ``created_at`` as
# ``created_at``; ``theta`` serves the config, the certificate and
# ``make_separated``'s target.
STREAM_PARAMS: dict[str, tuple[type, str]] = {
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
    "shift_scale": (numbers.Real, "(-inf, inf)"),
    "prompt_dim": (numbers.Integral, "[1, inf]"),
    "created_at": (numbers.Integral, "[-9223372036854775808, 9223372036854775808)"),  # int64
    "version": (numbers.Integral, "[0, inf]"),
    "num_configs": (numbers.Integral, "[1, inf]"),
}
_PARAMS = {**HYPERPARAMS, **STREAM_PARAMS}
_BOUNDS = {k: tuple(map(float, r[1:-1].split(","))) for k, (_, r) in _PARAMS.items()}  # (lo, hi)


def check_param(name: str, value):
    """Return ``value`` if it has the type and range the table gives ``name``.

    The table is ``HYPERPARAMS`` plus ``STREAM_PARAMS``; the type is checked
    by ``is_number``.
    """
    kind, allowed = _PARAMS[name]
    lo, hi = _BOUNDS[name]
    if not (
        is_number(value, kind)
        and (lo < value if allowed[0] == "(" else lo <= value)
        and (value < hi if allowed[-1] == ")" else value <= hi)
    ):
        raise ValueError(f"{name} must be {kind.__name__} in {allowed}, got {value!r}")
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

    def __post_init__(self):
        for f in fields(self):
            check_param(f.name, getattr(self, f.name))

    @classmethod
    def from_dict(cls, doc: dict) -> "Hyperparams":
        return record_from_dict(cls, doc, "hyperparameter")


def check_keys(doc, what: str, names, required) -> dict:
    """``doc`` if it is a dict, as a JSON object loads, with no key outside
    ``names`` and every key of ``required``; else a ValueError naming the
    first fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(doc) - set(names)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    return doc


def record_from_dict(cls, doc: dict, what: str):
    """Build the dataclass ``cls`` from ``doc`` by ``check_keys``: a key may
    be left out only if it has a default. The values are checked by ``cls``."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return cls(**check_keys(doc, what, [f.name for f in fields(cls)], required))


@dataclass
class BatchStats:
    """Per-dimension mean and population standard deviation of a feature batch."""

    mu: Vector
    sigma: Vector

    def __post_init__(self):
        self.mu = as_array(self.mu, (None,), "mu")
        self.sigma = as_array(self.sigma, self.mu.shape, "sigma")
        if (self.sigma < 0.0).any():
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


def row_norms(x: Matrix, keepdims: bool = False) -> np.ndarray:
    """``np.linalg.norm(x, axis=1, keepdims=keepdims)``, by its own arithmetic (fact 10)."""
    return np.sqrt(np.add.reduce(x * x, 1, keepdims=keepdims))


def moments(arr: Matrix) -> tuple[Vector, Matrix, Vector]:
    """Column mean, centred rows and population standard deviation of ``arr``."""
    b = arr.shape[0]
    # sum / b is mean's own arithmetic, bit for bit (tests/test_bitfacts.py, fact 6)
    mu = np.add.reduce(arr, 0) / b
    centered = arr - mu
    return mu, centered, np.sqrt(np.add.reduce(centered ** 2, 0) / b)


def batch_stats(features) -> BatchStats:
    """Mean and population standard deviation (divide by b) over a feature batch.

    Requires at least two vectors; one sample cannot define a spread. A finite
    batch whose mean or squared deviations exceed float64 is rejected by name.
    """
    arr = as_array(features, (None, None), "features", min_rows=2)
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
