"""Synthetic domain-shift streams and their file format.

Domains are additive input shifts (with optional elementwise scaling) around
shared class means. ``make_separated`` constructs domain sets certified to be
well separated in the model's key-statistics space: every same-domain batch
pair closer than a threshold that every cross-domain pair exceeds.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ToyModel, key_stats
from .numerics import Matrix, SeededRng, Vector, as_matrix, as_vector


class StreamParseError(ValueError):
    """Malformed stream file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic domain: x = scale * (class_mean + noise) + shift."""

    domain_id: int
    shift: Vector
    scale: Vector
    class_means: Matrix
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "class_means", as_matrix(self.class_means, name="class_means"))
        dim = self.class_means.shape[1]
        object.__setattr__(self, "shift", as_vector(self.shift, dim=dim, name="shift"))
        object.__setattr__(self, "scale", as_vector(self.scale, dim=dim, name="scale"))
        if np.any(self.scale <= 0.0):
            raise ValueError("scale entries must be > 0")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")

    @property
    def input_dim(self) -> int:
        return self.class_means.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a stream: which domains arrive, how often, and batch geometry."""

    domain_order: tuple[int, ...]
    batches_per_domain: int = 30
    batch_size: int = 16
    input_dim: int = 8
    num_classes: int = 3
    seed: int = 0
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "domain_order", tuple(int(d) for d in self.domain_order))
        if not self.domain_order:
            raise ValueError("domain_order must be nonempty")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.batches_per_domain < 1 or self.input_dim < 1 or self.num_classes < 1:
            raise ValueError("batches_per_domain, input_dim, num_classes must be positive")
        if self.theta is not None and self.theta <= 0:
            raise ValueError("theta must be > 0 when set")

    FIELDS = (
        "domain_order",
        "batches_per_domain",
        "batch_size",
        "input_dim",
        "num_classes",
        "seed",
        "theta",
    )

    def to_dict(self) -> dict:
        return {
            "domain_order": list(self.domain_order),
            "batches_per_domain": self.batches_per_domain,
            "batch_size": self.batch_size,
            "input_dim": self.input_dim,
            "num_classes": self.num_classes,
            "seed": self.seed,
            "theta": self.theta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StreamConfig":
        unknown = set(doc) - set(cls.FIELDS)
        if unknown:
            raise ValueError(f"unknown stream config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class LabeledBatch:
    """One test batch plus observer-only ground truth (labels never feed the engine)."""

    samples: Matrix
    class_ids: np.ndarray
    domain_id: int
    batch_index: int


@dataclass(frozen=True)
class SeparationCertificate:
    """Measured separation of a probe set: valid iff max_intra < theta < min_inter."""

    theta: float
    max_intra: float
    min_inter: float
    probe_batches: int
    seed: int

    @property
    def valid(self) -> bool:
        return self.max_intra < self.theta < self.min_inter

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "max_intra": self.max_intra,
            "min_inter": self.min_inter,
            "probe_batches": self.probe_batches,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SeparationCertificate":
        return cls(**doc)


def _balanced_labels(batch_size: int, num_classes: int, rng: SeededRng) -> np.ndarray:
    template = np.array([k % num_classes for k in range(batch_size)], dtype=np.int64)
    return rng.permutation(template)


def _draw_batch(spec: DomainSpec, batch_size: int, rng: SeededRng):
    labels = _balanced_labels(batch_size, spec.num_classes, rng)
    x = spec.class_means[labels]
    if spec.noise_std > 0.0:
        x = x + rng.normal(size=(batch_size, spec.input_dim), scale=spec.noise_std)
    return spec.scale * x + spec.shift, labels


def generate_stream(
    config: StreamConfig, domains: list[DomainSpec], rng: SeededRng
) -> list[LabeledBatch]:
    """Emit batches in domain order, deterministically from the given rng."""
    by_id = {d.domain_id: d for d in domains}
    if len(by_id) != len(domains):
        raise ValueError("duplicate domain ids")
    for d in domains:
        if d.input_dim != config.input_dim:
            raise ValueError("domain input_dim must match config")
        if d.num_classes != config.num_classes:
            raise ValueError("domain class count must match config")
    missing = [d for d in config.domain_order if d not in by_id]
    if missing:
        raise ValueError(f"domain_order references unknown domains {missing}")

    batches = []
    index = 0
    for d in config.domain_order:
        spec = by_id[d]
        for _ in range(config.batches_per_domain):
            x, labels = _draw_batch(spec, config.batch_size, rng)
            batches.append(LabeledBatch(x, labels, d, index))
            index += 1
    return batches


def _probe_keys(
    specs: list[DomainSpec], batch_size: int, probe_batches: int, model: ToyModel, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    keys = []
    owners = []
    for spec in specs:
        for _ in range(probe_batches):
            x, _ = _draw_batch(spec, batch_size, rng)
            keys.append(key_stats(model, x).concat())
            owners.append(spec.domain_id)
    return np.stack(keys), np.array(owners)


def measure_separation(keys: np.ndarray, owners: np.ndarray) -> tuple[float, float]:
    """Max same-domain and min cross-domain pairwise key distance."""
    diff = keys[:, None, :] - keys[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    same = owners[:, None] == owners[None, :]
    off_diag = ~np.eye(len(owners), dtype=bool)
    intra = dist[same & off_diag]
    inter = dist[~same]
    max_intra = float(intra.max()) if intra.size else 0.0
    min_inter = float(inter.min()) if inter.size else np.inf
    return max_intra, min_inter


def make_separated(
    config: StreamConfig,
    n_domains: int,
    theta_target: float,
    model: ToyModel,
    rng: SeededRng,
    *,
    noise_std: float = 0.4,
    class_means: Matrix | None = None,
    class_mean_scale: float = 1.0,
    probe_batches: int = 20,
    inter_margin: float = 3.0,
    intra_margin: float = 0.4,
    max_attempts: int = 8,
) -> tuple[list[DomainSpec], SeparationCertificate]:
    """Construct domains certified well-separated in the model's key space.

    Domain 0 is unshifted; the rest shift along near-orthogonal directions,
    scaled until every cross-domain probe pair is farther than ``theta_target``
    while same-domain pairs stay below ``intra_margin * theta_target``. Fails
    rather than returning an uncertified set: scaling cannot shrink the
    intra-domain spread, which is fixed by the noise level.
    """
    if n_domains < 2:
        raise ValueError("need at least 2 domains to separate")
    if theta_target <= 0:
        raise ValueError("theta_target must be > 0")
    if probe_batches < 20:
        raise ValueError("certificate needs >= 20 probe batches per domain")
    if class_means is None:
        means = rng.child(0).normal(size=(config.num_classes, config.input_dim)) * class_mean_scale
    else:
        means = as_matrix(class_means, shape=(config.num_classes, config.input_dim))

    raw = rng.child(1).normal(size=(n_domains - 1, config.input_dim))
    if n_domains - 1 <= config.input_dim:
        q, _ = np.linalg.qr(raw.T)
        dirs = q.T[: n_domains - 1]
    else:
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    unit_shifts = np.vstack([np.zeros(config.input_dim), dirs])
    feat_shifts = unit_shifts @ model.extractor.T
    pair_gaps = [
        float(np.linalg.norm(feat_shifts[i] - feat_shifts[j]))
        for i in range(n_domains)
        for j in range(i + 1, n_domains)
    ]
    min_gap = min(pair_gaps)
    if min_gap <= 0:
        raise ValueError("degenerate shift directions under this extractor")
    scale = inter_margin * theta_target / min_gap

    ones = np.ones(config.input_dim)
    for attempt in range(max_attempts):
        specs = [
            DomainSpec(i, scale * unit_shifts[i], ones, means, noise_std)
            for i in range(n_domains)
        ]
        keys, owners = _probe_keys(
            specs, config.batch_size, probe_batches, model, rng.child(2, attempt)
        )
        max_intra, min_inter = measure_separation(keys, owners)
        if max_intra >= intra_margin * theta_target:
            raise ValueError(
                f"cannot certify: intra-domain spread {max_intra:.4g} exceeds "
                f"{intra_margin:.2g} * theta at noise_std={noise_std}"
            )
        if min_inter > theta_target:
            cert = SeparationCertificate(
                theta_target, max_intra, min_inter, probe_batches, rng.seed
            )
            return specs, cert
        scale *= 2.0
    raise ValueError(f"separation not achieved after {max_attempts} attempts")


_HEADER_PREFIX = ("batch_idx", "domain_id", "class_id")


def write_stream(batches: list[LabeledBatch], path) -> None:
    """Write batches as CSV with 9-significant-digit floats."""
    if batches:
        dim = batches[0].samples.shape[1]
    else:
        dim = 0
    header = ",".join(list(_HEADER_PREFIX) + [f"f{k}" for k in range(dim)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for batch in batches:
            for row, cls in zip(batch.samples, batch.class_ids):
                vals = ",".join(format(v, ".9g") for v in row)
                fh.write(f"{batch.batch_index},{batch.domain_id},{int(cls)},{vals}\n")


def read_stream(path) -> list[LabeledBatch]:
    """Parse a stream CSV back into batches; malformed input fails with a line number."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        warnings.warn(f"stream file {path} is empty: zero batches")
        return []
    header = lines[0].split(",")
    if tuple(header[:3]) != _HEADER_PREFIX:
        raise StreamParseError(1, f"expected header starting with {','.join(_HEADER_PREFIX)}")
    dim = len(header) - 3
    for k, name in enumerate(header[3:]):
        if name != f"f{k}":
            raise StreamParseError(1, f"bad feature column name {name!r}")
    if len(lines) == 1:
        warnings.warn(f"stream file {path} contains zero batches")
        return []

    batches: list[LabeledBatch] = []
    cur_idx: int | None = None
    cur_domain = 0
    cur_line = 0
    cur_rows: list[list[float]] = []
    cur_classes: list[int] = []

    def flush():
        if cur_idx is not None:
            if len(cur_rows) < 2:
                # key statistics need a spread, so the engine cannot adapt on it
                raise StreamParseError(cur_line, f"batch {cur_idx} has fewer than 2 rows")
            batches.append(
                LabeledBatch(
                    np.array(cur_rows, dtype=np.float64),
                    np.array(cur_classes, dtype=np.int64),
                    cur_domain,
                    cur_idx,
                )
            )

    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise StreamParseError(lineno, f"expected {3 + dim} fields, got {len(parts)}")
        try:
            idx, dom, cls = int(parts[0]), int(parts[1]), int(parts[2])
            feats = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise StreamParseError(lineno, str(exc)) from None
        if not all(np.isfinite(feats)):
            raise StreamParseError(lineno, "non-finite feature value")
        if idx != cur_idx:
            if cur_idx is not None and idx <= cur_idx:
                raise StreamParseError(lineno, f"batch_idx {idx} not ascending")
            flush()
            cur_idx, cur_domain, cur_line, cur_rows, cur_classes = idx, dom, lineno, [], []
        elif dom != cur_domain:
            raise StreamParseError(lineno, f"domain_id changed within batch {idx}")
        cur_rows.append(feats)
        cur_classes.append(cls)
    flush()
    return batches
