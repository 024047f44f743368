"""Online adaptation loop, metrics, and the cluster-correctness verifier.

``run_ctta`` wires fission, prompt optimization, prediction, and fusion per
batch, in that order: each batch is scored with its freshly learned prompts
before any pool mutation. Ground-truth labels are consumed only here, for
metrics and the observer ledger; the adaptation step itself sees samples only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .fusion import ClassUpdateRecord, DomainUpdateSummary, update_class_pool, update_domain_pool
from .model import (
    ToyModel,
    draw_labeled_samples,
    fit_source_model,
    forward,
    key_stats,
    make_class_means,
    prompted_features,
    pseudo_labels,
)
from .numerics import (
    BatchStats, Hyperparams, Matrix, SeededRng, batch_stats, check_param, check_stats,
)
from .objective import finite_diff_grad, grad, optimize_prompts
from .pools import ClassPromptPool, DomainPromptPool, FissionOutcome, fission_class_batch, fission_domain
from .stream import DomainSpec, LabeledBatch, SeparationCertificate, StreamConfig


METRICS_CSV_HEADER = (
    "batch_idx,domain_id_true,error_rate,mean_entropy,loss_d,loss_c,"
    "pool_d_size,pool_c_size,fissioned_d,fissioned_c,param_count"
)


@dataclass
class BatchMetrics:
    batch_idx: int
    domain_id_true: int
    error_rate: float
    loss_d: float
    loss_c: float
    pool_d_size: int
    pool_c_size: int
    fissioned_d: int
    fissioned_c: int
    param_count: int
    fused_d: int = 0
    compacted_c: int = 0

    def csv_row(self) -> str:
        # the mean_entropy column holds loss_c, the batch's mean prediction
        # entropy; str of a Python float is its repr
        return ",".join(map(str, (
            self.batch_idx, self.domain_id_true, self.error_rate, self.loss_c, self.loss_d,
            self.loss_c, self.pool_d_size, self.pool_c_size, self.fissioned_d,
            self.fissioned_c, self.param_count,
        )))


def _period(seq: list[int]) -> int:
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[:p] * (n // p):
            return p
    return n


@dataclass
class RunMetrics:
    """Per-batch records plus derived aggregates of one adaptation run."""

    rows: list[BatchMetrics] = field(default_factory=list)

    def overall_error(self) -> float:
        return float(np.mean([r.error_rate for r in self.rows])) if self.rows else 0.0

    def per_domain_error(self) -> dict[int, float]:
        sums: dict[int, list[float]] = {}
        for r in self.rows:
            sums.setdefault(r.domain_id_true, []).append(r.error_rate)
        return {d: float(np.mean(v)) for d, v in sorted(sums.items())}

    def round_index(self) -> list[int]:
        """Round id per row, from the repetition period of the domain-block sequence."""
        blocks = [(d, len(list(run))) for d, run in groupby(r.domain_id_true for r in self.rows)]
        p = _period([d for d, _ in blocks])
        return [k // p for k, (_, size) in enumerate(blocks) for _ in range(size)]

    def per_round_error(self) -> list[float]:
        rounds = self.round_index()
        if not rounds:
            return []
        means: list[list[float]] = [[] for _ in range(max(rounds) + 1)]
        for r, row in zip(rounds, self.rows):
            means[r].append(row.error_rate)
        return [float(np.mean(v)) for v in means]

    def to_csv(self) -> str:
        lines = [METRICS_CSV_HEADER] + [r.csv_row() for r in self.rows]
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        per_round = self.per_round_error()
        doc = {
            "overall_error": self.overall_error(),
            "per_domain_error": {str(d): e for d, e in self.per_domain_error().items()},
            "final_pool_sizes": {
                "domain": self.rows[-1].pool_d_size if self.rows else 0,
                "class": self.rows[-1].pool_c_size if self.rows else 0,
            },
            "total_fissions": {
                "domain": int(sum(r.fissioned_d for r in self.rows)),
                "class": int(sum(r.fissioned_c for r in self.rows)),
            },
            "total_fusions": {
                "domain": int(sum(r.fused_d for r in self.rows)),
                "class": int(sum(r.compacted_c for r in self.rows)),
            },
            "num_batches": len(self.rows),
        }
        if len(per_round) > 1:
            doc["per_round_error"] = per_round
        return doc


@dataclass
class ClusterLedger:
    """Observer-only record of ground-truth clusters behind domain-pool entries.

    The engine never reads it; the verifier uses it to check that matching,
    fission, and fusion respect the true domain partition.
    """

    entry_labels: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set)

    def on_fission_outcome(self, batch_index: int, true_domain: int, outcome: FissionOutcome):
        first = true_domain not in self._seen
        self._seen.add(true_domain)
        if first and not outcome.fissioned[0]:
            self.violations.append(
                f"batch {batch_index}: first encounter of domain {true_domain} "
                "matched existing prompts instead of fissioning"
            )
        for i in outcome.candidates.tolist():
            if self.entry_labels[i] != true_domain:
                self.violations.append(
                    f"batch {batch_index}: matched entry {i} of domain "
                    f"{self.entry_labels[i]} while in domain {true_domain}"
                )

    def on_domain_update(self, batch_index: int, true_domain: int, summary: DomainUpdateSummary):
        if summary.fissioned:
            self.entry_labels.append(true_domain)
            if summary.fused_pair is not None:
                i, j = summary.fused_pair
                if self.entry_labels[i] != self.entry_labels[j]:
                    self.violations.append(
                        f"batch {batch_index}: fused entries of domains "
                        f"{self.entry_labels[i]} and {self.entry_labels[j]}"
                    )
                del self.entry_labels[j]


@dataclass
class RunResult:
    metrics: RunMetrics
    class_pool: ClassPromptPool
    domain_pool: DomainPromptPool


def _checked_pool(keyword: str, given, new):
    """``given``, else ``new``; a given pool must have ``new``'s capacity,
    prompt width and key width."""
    if given is None:
        return new
    for name in ("capacity", "prompt_dim", new.WIDTH):
        got, want = getattr(given, name, None), getattr(new, name)
        if got != want:
            raise ValueError(f"{keyword} has {name} {got}, the run's is {want}")
    return given


def run_ctta(
    model: ToyModel,
    stream: list[LabeledBatch],
    hyperparams: Hyperparams,
    source_stats: BatchStats,
    *,
    rng: SeededRng,
    class_pool: ClassPromptPool | None = None,
    domain_pool: DomainPromptPool | None = None,
    ledger: ClusterLedger | None = None,
    on_batch_start=None,
) -> RunResult:
    """Adapt online over the stream, scoring each batch before mutating the pools."""
    if not stream:
        raise ValueError("empty stream")
    # before any draw is made; a given pool must have the shape of a new one
    check_stats(source_stats, model.feature_dim, "source statistics")
    hp = hyperparams
    new = ClassPromptPool(hp.n_c, model.input_dim, model.num_classes)
    class_pool = _checked_pool("class_pool", class_pool, new)
    new = DomainPromptPool(hp.n_d, model.input_dim, model.feature_dim)
    domain_pool = _checked_pool("domain_pool", domain_pool, new)
    metrics = RunMetrics()

    for batch in stream:
        if on_batch_start is not None:
            on_batch_start(batch, class_pool, domain_pool)
        samples = batch.samples
        try:
            # one online step on the unlabeled samples
            labels_free = pseudo_labels(model, samples)
            class_outcome = fission_class_batch(class_pool, labels_free, hp, rng)
            stats = key_stats(model, samples)
            domain_outcome = fission_domain(domain_pool, stats, hp, rng)
            p_d, p_c, breakdown = optimize_prompts(
                model, samples, domain_outcome.composed[0], class_outcome.composed, source_stats, hp
            )
            _, probs = forward(model, samples, p_d, p_c)

            record = ClassUpdateRecord(p_c, probs, labels_free, class_outcome)
            class_summary = update_class_pool(class_pool, record, hp, created_at=batch.batch_index)
            domain_summary = update_domain_pool(
                domain_pool, p_d, stats, domain_outcome, hp, created_at=batch.batch_index
            )
        except ValueError as exc:
            raise ValueError(f"batch {batch.batch_index}: {exc}") from exc
        if ledger is not None:
            ledger.on_fission_outcome(batch.batch_index, batch.domain_id, domain_outcome)
            ledger.on_domain_update(batch.batch_index, batch.domain_id, domain_summary)

        predicted = probs.argmax(axis=1)
        error_rate = np.count_nonzero(predicted != batch.class_ids) / len(predicted)
        metrics.rows.append(
            BatchMetrics(
                batch_idx=batch.batch_index,
                domain_id_true=batch.domain_id,
                error_rate=error_rate,
                loss_d=breakdown.loss_d,
                loss_c=breakdown.loss_c,
                pool_d_size=len(domain_pool),
                pool_c_size=len(class_pool),
                fissioned_d=int(domain_outcome.fissioned[0]),
                fissioned_c=int(class_outcome.fissioned.sum()),
                param_count=(len(domain_pool) + len(class_pool)) * model.input_dim,
                fused_d=int(domain_summary.fused_pair is not None),
                compacted_c=int(class_summary.compaction is not None),
            )
        )
    return RunResult(metrics, class_pool, domain_pool)


@dataclass
class LemmaReport:
    """Verdict of the cluster-correctness checks on a certified stream."""

    status: str  # "pass" | "hypothesis_violation" | "lemma_violation"
    hypothesis_issues: list[str]
    violations: list[str]
    num_batches: int
    num_domains: int
    metrics: RunMetrics | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_lemmas(
    stream: list[LabeledBatch],
    certificate: SeparationCertificate,
    hyperparams: Hyperparams,
    model: ToyModel,
    source_stats: BatchStats,
    *,
    rng: SeededRng,
) -> LemmaReport:
    """Check cluster-correct matching, fission, and fusion on a certified stream.

    Requires the separation hypotheses (valid certificate, matching threshold
    below theta, pool capacity above the domain count); if they fail, the
    report says so instead of blaming the engine.
    """
    if certificate is None:
        raise ValueError("verification requires a separation certificate")
    if not stream:
        raise ValueError("empty stream")
    n_domains = len({b.domain_id for b in stream})
    issues = []
    if not certificate.valid:
        issues.append(
            f"certificate invalid: max_intra={certificate.max_intra:.4g}, "
            f"theta={certificate.theta:.4g}, min_inter={certificate.min_inter:.4g}"
        )
    if hyperparams.gamma_d >= certificate.theta:
        issues.append(
            f"gamma_d={hyperparams.gamma_d:.4g} must be below theta={certificate.theta:.4g}"
        )
    if hyperparams.n_d <= n_domains:
        issues.append(f"n_d={hyperparams.n_d} must exceed the domain count {n_domains}")
    if issues:
        return LemmaReport("hypothesis_violation", issues, [], len(stream), n_domains)

    ledger = ClusterLedger()
    result = run_ctta(model, stream, hyperparams, source_stats, rng=rng, ledger=ledger)
    status = "pass" if not ledger.violations else "lemma_violation"
    return LemmaReport(status, [], ledger.violations, len(stream), n_domains, result.metrics)


GRADCHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckResult:
    rel_errors: list[float]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(num_configs: int = 50, *, seed: int = 0) -> GradCheckResult:
    """Compare analytic gradients with central differences on random setups.

    The differences take steps of ``objective.FD_STEP``; the check passes
    when every relative error is below ``GRADCHECK_TOLERANCE``. Configurations
    landing within 1e-6 of an alignment-norm kink are resampled, since the
    subgradient convention is not comparable there.
    """
    check_param("num_configs", num_configs)
    check_param("seed", seed)
    rel_errors = []
    base = SeededRng(seed)
    for k in range(num_configs):
        for attempt in range(20):
            r = base.child(k, attempt)
            b = int(r.integers(4, 17))
            input_dim = int(r.integers(3, 9))
            feature_dim = int(r.integers(3, 9))
            num_classes = int(r.integers(2, 9))
            model = ToyModel(
                r.normal(size=(feature_dim, input_dim)) / np.sqrt(input_dim),
                r.normal(size=(num_classes, feature_dim)),
                r.normal(size=num_classes),
            )
            x = r.normal(size=(b, input_dim))
            p_d = r.normal(size=input_dim, scale=0.5)
            p_c = r.normal(size=(b, input_dim), scale=0.5)
            source = BatchStats(
                r.normal(size=feature_dim),
                np.abs(r.normal(size=feature_dim)) + 0.1,
            )
            a = float(r.uniform(0.0, 4.0))
            alpha_std = float(r.uniform(0.3, 2.0))
            stats = batch_stats(prompted_features(model, x, p_d, p_c))
            if (
                np.linalg.norm(stats.mu - source.mu) <= 1e-6
                or np.linalg.norm(stats.sigma - source.sigma) <= 1e-6
            ):
                continue
            ga_d, ga_c = grad(model, x, p_d, p_c, source, a, alpha_std)
            gf_d, gf_c = finite_diff_grad(model, x, p_d, p_c, source, a, alpha_std)
            scale = max(np.abs(gf_d).max(), np.abs(gf_c).max(), 1e-12)
            err = max(np.abs(ga_d - gf_d).max(), np.abs(ga_c - gf_c).max())
            rel_errors.append(float(err / scale))
            break
        else:
            raise RuntimeError("could not sample a kink-free configuration")
    return GradCheckResult(rel_errors, GRADCHECK_TOLERANCE)


@dataclass
class World:
    """A frozen source model, its class means, and the source statistics."""

    model: ToyModel
    class_means: Matrix
    source_stats: BatchStats
    source_spec: DomainSpec


def build_world(config: StreamConfig, *, noise_std: float = 0.4) -> World:
    """Deterministically construct the source model and statistics from the config seed.

    Unit-scale class means, a feature width equal to ``config.input_dim`` and
    300 source samples. ``noise_std`` is checked by the source ``DomainSpec``
    before the model is fit.
    """
    rng = SeededRng(config.seed)
    means = make_class_means(config.num_classes, config.input_dim, rng.child(10))
    source_spec = DomainSpec(0, np.zeros(config.input_dim), means, noise_std)
    model = fit_source_model(config.input_dim, means, noise_std, rng.child(11))
    src_x, _ = draw_labeled_samples(means, 300, noise_std, rng.child(12))
    return World(model, means, key_stats(model, src_x), source_spec)
