"""Randomized pool/record instance builders shared by fusion and acceptance tests."""
from __future__ import annotations

import numpy as np

from ctta.fusion import ClassUpdateRecord
from ctta.numerics import BatchStats, SeededRng
from ctta.pools import ClassPromptPool, DomainPromptPool, FissionOutcome


def random_prob(rng: SeededRng, dim: int) -> np.ndarray:
    v = rng.uniform(0.02, 1.0, size=dim)
    return v / v.sum()


def load_pool(empty, rows):
    """A pool shaped like ``empty`` holding ``rows`` of (key, prompt,
    created_at), loaded through its ``from_dict`` at one version per row, as
    if the rows were added one by one. A domain key is (mu, sigma). A pool
    over capacity, which no snapshot holds, loads at its row count and then
    gets its capacity back.
    """
    doc = empty.to_dict()
    f = doc.get("feature_dim")
    doc["entries"] = [
        {
            **({"key": list(k)} if f is None else {"mu": list(k[:f]), "sigma": list(k[f:])}),
            "prompt": list(p),
            "created_at": c,
        }
        for k, p, c in rows
    ]
    n = len(doc["entries"])
    doc.update(capacity=max(empty.capacity, n), version=n)
    pool = type(empty).from_dict(doc)
    pool.capacity = empty.capacity
    return pool


def random_class_pool(
    rng: SeededRng, n_entries: int, capacity: int, num_classes: int, prompt_dim: int
) -> ClassPromptPool:
    return load_pool(
        ClassPromptPool(capacity, prompt_dim, num_classes),
        [(random_prob(rng, num_classes), rng.normal(size=prompt_dim), i) for i in range(n_entries)],
    )


def random_domain_pool(
    rng: SeededRng, n_entries: int, capacity: int, feature_dim: int, prompt_dim: int
) -> DomainPromptPool:
    return load_pool(
        DomainPromptPool(capacity, prompt_dim, feature_dim),
        [
            (
                BatchStats(rng.normal(size=feature_dim), np.abs(rng.normal(size=feature_dim))).concat(),
                rng.normal(size=prompt_dim),
                i,
            )
            for i in range(n_entries)
        ],
    )


def make_outcome(prompt, weights: dict[int, float] | None, version: int) -> FissionOutcome:
    """A one-row outcome from an {index: weight} map, or a fissioned one for ``None``."""
    idx = sorted(weights or {})
    return FissionOutcome(
        np.asarray(prompt, dtype=float)[None, :],
        np.array([0, len(idx)], dtype=np.int64),
        np.array(idx, dtype=np.int64),
        np.array([weights[i] for i in idx], dtype=float),
        version,
    )


def random_outcome(rng: SeededRng, pool, prompt_dim: int, fission_prob: float) -> FissionOutcome:
    if len(pool) == 0 or rng.uniform() < fission_prob:
        return make_outcome(rng.normal(size=prompt_dim, scale=0.1), None, pool.version)
    n_cand = int(rng.integers(1, len(pool) + 1))
    idx = sorted(rng.permutation(len(pool))[:n_cand].tolist())
    w = rng.uniform(0.1, 1.0, size=n_cand)
    w = w / w.sum()
    return make_outcome(
        rng.normal(size=prompt_dim, scale=0.1), dict(zip(idx, w.tolist())), pool.version
    )


def class_record(learned, prediction, pseudo_label, outcome: FissionOutcome) -> ClassUpdateRecord:
    """A one-sample batch record."""
    return ClassUpdateRecord(
        np.array([learned], dtype=float),
        np.array([prediction], dtype=float),
        np.array([pseudo_label], dtype=float),
        outcome,
    )


def stack_outcomes(outcomes: list[FissionOutcome]) -> FissionOutcome:
    """One outcome holding the rows of ``outcomes`` in order."""
    sizes = [o.candidates.size for o in outcomes]
    return FissionOutcome(
        np.concatenate([o.composed for o in outcomes]),
        np.cumsum([0] + sizes, dtype=np.int64),
        np.concatenate([o.candidates for o in outcomes]),
        np.concatenate([o.weights for o in outcomes]),
        outcomes[0].pool_version,
    )


def stack_class_records(records: list[ClassUpdateRecord]) -> ClassUpdateRecord:
    """One batch record holding the samples of ``records`` in order."""
    return ClassUpdateRecord(
        np.concatenate([r.learned_prompts for r in records]),
        np.concatenate([r.predictions for r in records]),
        np.concatenate([r.pseudo_labels for r in records]),
        stack_outcomes([r.outcome for r in records]),
    )


def random_class_records(
    rng: SeededRng, pool: ClassPromptPool, batch_size: int, fission_prob: float = 0.3
) -> ClassUpdateRecord:
    """One batch record of ``batch_size`` random samples, drawn sample by sample."""
    return stack_class_records(
        [
            class_record(
                rng.normal(size=pool.prompt_dim),
                random_prob(rng, pool.num_classes),
                random_prob(rng, pool.num_classes),
                random_outcome(rng, pool, pool.prompt_dim, fission_prob),
            )
            for _ in range(batch_size)
        ]
    )


def block_class_records(
    rng: SeededRng, pool: ClassPromptPool, batch_size: int, alternate: bool, fission_prob: float = 0.3
) -> ClassUpdateRecord:
    """One batch record whose matched samples all name one block of two or
    more pool rows or, with ``alternate``, the block and a strict subset of
    it in turn. The first two samples match; each later one fissions with
    probability ``fission_prob``.
    """
    block = np.sort(rng.permutation(len(pool))[: int(rng.integers(2, len(pool) + 1))])
    samples, matched = [], 0
    for t in range(batch_size):
        if t >= 2 and rng.uniform() < fission_prob:
            weights = None
        else:
            idx = block
            if alternate and matched % 2:
                idx = np.sort(rng.permutation(block)[: int(rng.integers(1, len(block)))])
            w = rng.uniform(0.1, 1.0, size=len(idx))
            weights, matched = dict(zip(idx.tolist(), (w / w.sum()).tolist())), matched + 1
        outcome = make_outcome(rng.normal(size=pool.prompt_dim, scale=0.1), weights, pool.version)
        samples.append(
            class_record(
                rng.normal(size=pool.prompt_dim),
                random_prob(rng, pool.num_classes),
                random_prob(rng, pool.num_classes),
                outcome,
            )
        )
    return stack_class_records(samples)


def sparse_class_records(
    rng: SeededRng, pool: ClassPromptPool, num_matched: int, num_fissioned: int = 0
) -> ClassUpdateRecord:
    """One batch record shaped like a saturating batch: ``num_matched``
    matched samples, each naming one to three random pool rows, and
    ``num_fissioned`` fissioned samples at random places among them. Over a
    pool of many rows, rows recur across samples but no sample names them all.
    """
    size = num_matched + num_fissioned
    fission_at = set(rng.permutation(size)[:num_fissioned].tolist())
    samples = []
    for t in range(size):
        weights = None
        if t not in fission_at:
            idx = rng.permutation(len(pool))[: int(rng.integers(1, 4))]
            w = rng.uniform(0.1, 1.0, size=len(idx))
            weights = dict(zip(idx.tolist(), (w / w.sum()).tolist()))
        outcome = make_outcome(rng.normal(size=pool.prompt_dim, scale=0.1), weights, pool.version)
        samples.append(
            class_record(
                rng.normal(size=pool.prompt_dim),
                random_prob(rng, pool.num_classes),
                random_prob(rng, pool.num_classes),
                outcome,
            )
        )
    return stack_class_records(samples)


def chain_class_records(
    rng: SeededRng, pool: ClassPromptPool, num_matched: int, num_fissioned: int = 0
) -> ClassUpdateRecord:
    """One batch record whose consecutive matched samples share exactly one
    pool row: each matched sample names two rows, and each after the first
    names one row of the sample before and one row that sample did not name.
    A sample's two rows have mostly met different numbers of earlier samples,
    so the class update applies them in different steps; it always does for
    the second matched sample. Every sample names as many rows as every other,
    and with two matched samples or more none names every touched row.
    ``num_fissioned`` fissioned samples fall at random places. The pool needs
    three or more rows.
    """
    size = num_matched + num_fissioned
    fission_at = set(rng.permutation(size)[:num_fissioned].tolist())
    samples, prev = [], None
    for t in range(size):
        weights = None
        if t not in fission_at:
            if prev is None:
                idx = rng.permutation(len(pool))[:2]
            else:
                fresh = rng.permutation(np.setdiff1d(np.arange(len(pool)), prev))[0]
                idx = np.array([prev[int(rng.integers(0, 2))], fresh])
            w = rng.uniform(0.1, 1.0, size=len(idx))
            weights, prev = dict(zip(idx.tolist(), (w / w.sum()).tolist())), idx
        outcome = make_outcome(rng.normal(size=pool.prompt_dim, scale=0.1), weights, pool.version)
        samples.append(
            class_record(
                rng.normal(size=pool.prompt_dim),
                random_prob(rng, pool.num_classes),
                random_prob(rng, pool.num_classes),
                outcome,
            )
        )
    return stack_class_records(samples)


def random_domain_record(
    rng: SeededRng, pool: DomainPromptPool, fission_prob: float = 0.5
) -> tuple[np.ndarray, BatchStats, FissionOutcome]:
    """A domain update's inputs: (learned prompt, batch stats, outcome)."""
    return (
        rng.normal(size=pool.prompt_dim),
        BatchStats(rng.normal(size=pool.feature_dim), np.abs(rng.normal(size=pool.feature_dim))),
        random_outcome(rng, pool, pool.prompt_dim, fission_prob),
    )


def class_pool_tuples(pool: ClassPromptPool):
    return [
        (key.copy(), prompt.copy(), int(created))
        for key, prompt, created in zip(pool.keys, pool.prompts, pool.created_at)
    ]


def domain_pool_tuples(pool: DomainPromptPool):
    f = pool.feature_dim
    return [
        (key[:f].copy(), key[f:].copy(), prompt.copy(), int(created))
        for key, prompt, created in zip(pool.keys, pool.prompts, pool.created_at)
    ]
