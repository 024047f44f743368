"""Randomized pool/record instance builders shared by fusion and acceptance tests."""
from __future__ import annotations

import numpy as np

from ctta.fusion import ClassUpdateRecord, DomainUpdateRecord
from ctta.numerics import BatchStats, SeededRng
from ctta.pools import ClassPromptPool, DomainPromptPool, FissionOutcome


def random_prob(rng: SeededRng, dim: int) -> np.ndarray:
    v = rng.uniform(0.02, 1.0, size=dim)
    return v / v.sum()


def random_class_pool(
    rng: SeededRng, n_entries: int, capacity: int, num_classes: int, prompt_dim: int
) -> ClassPromptPool:
    pool = ClassPromptPool(capacity, prompt_dim, num_classes)
    for i in range(n_entries):
        pool.append(random_prob(rng, num_classes), rng.normal(size=prompt_dim), i)
    return pool


def random_domain_pool(
    rng: SeededRng, n_entries: int, capacity: int, feature_dim: int, prompt_dim: int
) -> DomainPromptPool:
    pool = DomainPromptPool(capacity, prompt_dim, feature_dim)
    for i in range(n_entries):
        pool.append(
            BatchStats(rng.normal(size=feature_dim), np.abs(rng.normal(size=feature_dim))).concat(),
            rng.normal(size=prompt_dim),
            i,
        )
    return pool


def random_outcome(rng: SeededRng, pool, prompt_dim: int, fission_prob: float) -> FissionOutcome:
    if len(pool) == 0 or rng.uniform() < fission_prob:
        return FissionOutcome(rng.normal(size=prompt_dim, scale=0.1), None, True, pool.version)
    n_cand = int(rng.integers(1, len(pool) + 1))
    idx = sorted(rng.permutation(len(pool))[:n_cand].tolist())
    w = rng.uniform(0.1, 1.0, size=n_cand)
    w = w / w.sum()
    return FissionOutcome(
        rng.normal(size=prompt_dim, scale=0.1),
        dict(zip(idx, w.tolist())),
        False,
        pool.version,
    )


def random_class_records(
    rng: SeededRng, pool: ClassPromptPool, batch_size: int, fission_prob: float = 0.3
) -> list[ClassUpdateRecord]:
    records = []
    for _ in range(batch_size):
        records.append(
            ClassUpdateRecord(
                rng.normal(size=pool.prompt_dim),
                random_prob(rng, pool.num_classes),
                random_prob(rng, pool.num_classes),
                random_outcome(rng, pool, pool.prompt_dim, fission_prob),
            )
        )
    return records


def random_domain_record(
    rng: SeededRng, pool: DomainPromptPool, fission_prob: float = 0.5
) -> DomainUpdateRecord:
    return DomainUpdateRecord(
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
