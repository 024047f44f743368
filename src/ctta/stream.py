"""Synthetic domain-shift streams and their file format.

Domains are additive input shifts around shared class means.
``make_separated`` constructs domain sets certified to be well separated in
the model's key-statistics space: every same-domain batch pair closer than a
threshold that every cross-domain pair exceeds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import groupby

import numpy as np

from .model import ToyModel, draw_labeled_samples, key_stats
from .numerics import Matrix, SeededRng, Vector, all_finite, as_array, check_param, record_from_dict
from .numerics import row_norms, upper_triangle


class StreamParseError(ValueError):
    """Malformed stream file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic domain: x = class_mean + noise + shift."""

    domain_id: int
    shift: Vector
    class_means: Matrix
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "class_means", as_array(self.class_means, (None, None), "class_means"))
        object.__setattr__(self, "shift", as_array(self.shift, self.class_means.shape[1:], "shift"))
        check_param("noise_std", self.noise_std)

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
        if not isinstance(self.domain_order, (list, tuple)):
            raise ValueError(f"domain_order must be a list, got {self.domain_order!r}")
        order = tuple(check_param("domain_order", d) for d in self.domain_order)
        object.__setattr__(self, "domain_order", tuple(map(int, order)))
        if not self.domain_order:
            raise ValueError("domain_order must be nonempty")
        for f in fields(self)[1:]:
            if f.name != "theta" or self.theta is not None:
                check_param(f.name, getattr(self, f.name))

    @classmethod
    def from_dict(cls, doc: dict) -> "StreamConfig":
        return record_from_dict(cls, doc, "stream config")


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

    def __post_init__(self):
        for f in fields(self):
            check_param(f.name, getattr(self, f.name))

    @property
    def valid(self) -> bool:
        return self.max_intra < self.theta < self.min_inter

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SeparationCertificate":
        return record_from_dict(cls, doc, "certificate")


def _draw_batch(spec: DomainSpec, batch_size: int, rng: SeededRng):
    x, labels = draw_labeled_samples(spec.class_means, batch_size, spec.noise_std, rng)
    return x + spec.shift, labels


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


# per domain: the fewest that SeparationCertificate.from_dict accepts
PROBE_BATCHES = 20


def _probe_keys(
    specs: list[DomainSpec], batch_size: int, model: ToyModel, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    keys = []
    owners = []
    for spec in specs:
        for _ in range(PROBE_BATCHES):
            x, _ = _draw_batch(spec, batch_size, rng)
            keys.append(key_stats(model, x).concat())
            owners.append(spec.domain_id)
    return np.stack(keys), np.array(owners)


def measure_separation(keys: np.ndarray, owners: np.ndarray) -> tuple[float, float]:
    """Max same-domain and min cross-domain pairwise key distance."""
    iu, ju = upper_triangle(len(owners)).nonzero()
    dist = row_norms(keys[iu] - keys[ju])
    same = owners[iu] == owners[ju]
    intra = dist[same]
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
    class_means: Matrix,
) -> tuple[list[DomainSpec], SeparationCertificate]:
    """Construct domains certified well-separated in the model's key space.

    Domain 0 is unshifted; the rest shift along near-orthogonal directions,
    scaled to put the closest pair 3 * ``theta_target`` apart in feature space
    and doubled, up to 8 times, until every cross-domain pair of probe keys
    (``PROBE_BATCHES`` batches per domain) is farther than ``theta_target``
    while same-domain pairs stay below 0.4 * theta.
    Fails rather than returning an uncertified set: scaling cannot shrink the
    intra-domain spread, which is fixed by the noise level.
    """
    if n_domains < 2:
        raise ValueError("need at least 2 domains to separate")
    check_param("theta", theta_target)
    means = as_array(class_means, (config.num_classes, config.input_dim), "class_means")

    raw = rng.child(1).normal(size=(n_domains - 1, config.input_dim))
    if n_domains - 1 <= config.input_dim:
        q, _ = np.linalg.qr(raw.T)
        dirs = q.T[: n_domains - 1]
    else:
        dirs = raw / row_norms(raw, keepdims=True)
    unit_shifts = np.vstack([np.zeros(config.input_dim), dirs])
    feat_shifts = unit_shifts @ model.extractor.T
    iu, ju = upper_triangle(n_domains).nonzero()
    # 1-d norms, not row_norms: these bits set every certified shift (numerics: second forms)
    min_gap = min(math.sqrt(v.dot(v)) for v in feat_shifts[iu] - feat_shifts[ju])
    if min_gap <= 0:
        raise ValueError("degenerate shift directions under this extractor")
    scale = 3.0 * theta_target / min_gap

    for attempt in range(8):
        specs = [
            DomainSpec(i, scale * unit_shifts[i], means, noise_std)
            for i in range(n_domains)
        ]
        keys, owners = _probe_keys(specs, config.batch_size, model, rng.child(2, attempt))
        max_intra, min_inter = measure_separation(keys, owners)
        if max_intra >= 0.4 * theta_target:
            raise ValueError(
                f"cannot certify: intra-domain spread {max_intra:.4g} exceeds "
                f"0.4 * theta at noise_std={noise_std}"
            )
        if min_inter > theta_target:
            return specs, SeparationCertificate(
                theta_target, max_intra, min_inter, PROBE_BATCHES, rng.seed
            )
        scale *= 2.0
    raise ValueError("separation not achieved after 8 attempts")


_HEADER_PREFIX = ("batch_idx", "domain_id", "class_id")
_INT64 = np.iinfo(np.int64)


def _written_width(batches: list[LabeledBatch]) -> int:
    """The feature width of batches that ``read_stream`` reads back: finite
    ``as_array`` samples of at least 2 rows and of one width of at least 1,
    one class id per row, in strictly ascending batch index. Raises
    ValueError naming the first batch that breaks a rule."""
    dim = prev = None
    for batch in batches:
        idx = batch.batch_index
        rows, dim = as_array(batch.samples, (None, dim), f"batch {idx}: samples", 2).shape
        if not dim:
            raise ValueError(f"batch {idx}: samples have no features")
        if batch.class_ids.shape != (rows,):
            shape = batch.class_ids.shape
            raise ValueError(f"batch {idx}: class ids of shape {shape} for {rows} rows")
        if prev is not None and idx <= prev:
            raise ValueError(f"batch {idx}: batch index not above the previous {prev}")
        prev = idx
    return dim or 0


def write_stream(batches: list[LabeledBatch], path) -> None:
    """Write batches as CSV with 9-significant-digit floats. Batches that
    ``read_stream`` would not read back raise ValueError before the file is
    opened."""
    dim = _written_width(batches)
    header = ",".join(list(_HEADER_PREFIX) + [f"f{k}" for k in range(dim)])
    # '%.9g' % x is format(x, '.9g') for every float64 (fact 11)
    row_format = ",".join(["%.9g"] * dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for batch in batches:
            lead = f"{batch.batch_index},{batch.domain_id},"
            fh.write(
                "".join(
                    f"{lead}{cls},{row_format % tuple(row)}\n"
                    for row, cls in zip(batch.samples.tolist(), batch.class_ids.tolist())
                )
            )


def read_stream(path) -> list[LabeledBatch]:
    """Parse a stream CSV back into batches; malformed input fails with a line number.

    Each run of lines with the same batch-index prefix is parsed as one block
    by ``_parse_batch``. Input it does not accept is parsed again line by line
    by ``_parse_lines``, which alone reports errors, so every message and line
    number comes from one place.
    """
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
    if not dim:
        raise StreamParseError(1, "header has no feature columns")

    data = lines[1:]
    batches: list[LabeledBatch] = []
    for _, rows in groupby(data, key=_batch_prefix):
        batch = _parse_batch(list(rows), dim)
        if batch is None or (batches and batch.batch_index <= batches[-1].batch_index):
            return _parse_lines(data, dim)
        batches.append(batch)
    return batches


def _batch_prefix(line: str) -> str:
    return line.partition(",")[0]


def _parse_batch(rows: list[str], dim: int) -> LabeledBatch | None:
    """One batch from its data lines (without newlines), which share a
    batch-index prefix: one split over the joined lines, then ``int()`` on the
    id columns, ``float()`` on the features and one finiteness check, as
    ``_parse_lines`` does per line. None for anything that parser might treat
    differently."""
    width = 3 + dim
    if len(rows) < 2:
        return None
    # joined by ",\n", the first field of every later row starts with the only
    # newlines in the text; when those fields sit at every width-th position
    # and the count is rows * width, every row has exactly width fields
    fields = ",\n".join(rows).split(",")
    if len(fields) != len(rows) * width or set(fields[width::width]) != {"\n" + fields[0]}:
        return None
    try:
        index = int(fields[0])
        domains = set(map(int, fields[1::width]))
        class_ids = np.array(list(map(int, fields[2::width])), dtype=np.int64)
        # casting str objects to float64 calls PyNumber_Float, float()'s own
        # conversion, on each; numpy's parser for str arrays is another one
        table = np.fromiter(fields, object, len(fields)).reshape(len(rows), width)
        samples = table[:, 3:].astype(np.float64)
    except (ValueError, OverflowError):
        return None
    if len(domains) != 1 or not all_finite(samples):
        return None
    return LabeledBatch(samples, class_ids, domains.pop(), index)


def _parse_lines(lines: list[str], dim: int) -> list[LabeledBatch]:
    """Line-by-line parser of the data lines (file line 2 onwards); raises
    ``StreamParseError`` with the first offending line."""
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

    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise StreamParseError(lineno, f"expected {3 + dim} fields, got {len(parts)}")
        try:
            idx, dom, cls = int(parts[0]), int(parts[1]), int(parts[2])
            feats = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise StreamParseError(lineno, str(exc)) from None
        if not _INT64.min <= cls <= _INT64.max:
            # class ids are stored as int64; int() accepts any size
            raise StreamParseError(lineno, f"class_id {cls} outside int64")
        if not all_finite(np.array(feats)):
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
