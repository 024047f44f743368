"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavy artifacts (the 200-stream verification sweep and
the repeating-domain run) are session fixtures shared by the criteria that
consume them.
"""
import json
import time

import numpy as np
import pytest

from ctta.cli import main
from ctta.fusion import _compact_class_pool, update_class_pool, update_domain_pool
from ctta.harness import (
    Hyperparams,
    build_world,
    gradient_check,
    run_ctta,
    verify_lemmas,
)
from ctta.model import draw_labeled_samples, pseudo_labels
from ctta.numerics import SeededRng
from ctta.stream import DomainSpec, StreamConfig, generate_stream, make_separated, read_stream, write_stream
from instancegen import (
    class_pool_tuples,
    domain_pool_tuples,
    random_class_pool,
    random_class_records,
    random_domain_pool,
    random_domain_record,
)
from reference import (
    algorithm1_reference,
    algorithm2_reference,
    partition_sets,
    single_linkage_bruteforce,
)

NOISE = 0.4
THETA = 4.0


def announce(num, name, elapsed, detail=""):
    extra = f" {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s{extra}", flush=True)


def certified_world(n_domains):
    cfg = StreamConfig(
        domain_order=tuple(range(n_domains)),
        batches_per_domain=30,
        batch_size=16,
        input_dim=8,
        num_classes=3,
        seed=1000 + n_domains,
        theta=THETA,
    )
    return build_world(cfg, noise_std=NOISE)


@pytest.fixture(scope="session")
def lemma_suite():
    """Criterion 1 workload: verification reports over 200 certified streams."""
    worlds = {n: certified_world(n) for n in range(2, 7)}
    reports = []
    capacities = []
    start = time.perf_counter()
    for seed in range(200):
        n = 2 + seed % 5
        world = worlds[n]
        cfg = StreamConfig(
            domain_order=tuple(range(n)),
            batches_per_domain=30,
            batch_size=16,
            input_dim=8,
            num_classes=3,
            seed=seed,
            theta=THETA,
        )
        rng = SeededRng(seed)
        specs, cert = make_separated(
            cfg, n, THETA, world.model, rng.child(2), noise_std=NOISE, class_means=world.class_means
        )
        stream = generate_stream(cfg, specs, rng.child(3))
        hp = Hyperparams(gamma_d=cert.theta / 2, n_d=n + 3)
        report = verify_lemmas(
            stream, cert, hp, world.model, world.source_stats, rng=rng.child(4)
        )
        reports.append(report)
        capacities.append((hp.n_d, hp.n_c))
    elapsed = time.perf_counter() - start
    return reports, capacities, elapsed


@pytest.fixture(scope="session")
def repeating_run():
    """Criterion 6 workload: 3 certified domains repeated for 10 rounds."""
    n = 3
    cfg = StreamConfig(
        domain_order=tuple(range(n)) * 10,
        batches_per_domain=10,
        batch_size=16,
        input_dim=8,
        num_classes=3,
        seed=2024,
        theta=THETA,
    )
    world = build_world(cfg, noise_std=NOISE)
    rng = SeededRng(cfg.seed)
    start = time.perf_counter()
    specs, cert = make_separated(
        cfg, n, THETA, world.model, rng.child(2), noise_std=NOISE, class_means=world.class_means
    )
    stream = generate_stream(cfg, specs, rng.child(3))
    hp = Hyperparams(gamma_d=cert.theta / 2, n_d=n + 3)
    result = run_ctta(world.model, stream, hp, world.source_stats, rng=rng.child(4))
    elapsed = time.perf_counter() - start
    return result, hp, elapsed


def test_criterion_1_lemma_suite(lemma_suite):
    reports, _, elapsed = lemma_suite
    assert len(reports) == 200
    failures = [r for r in reports if not r.passed]
    assert not failures, f"{len(failures)} streams reported violations: {failures[0].violations[:3]}"
    total_violations = sum(len(r.violations) for r in reports)
    assert total_violations == 0
    assert elapsed < 60.0, f"lemma suite took {elapsed:.1f}s, budget 60s"
    announce(1, "lemma suite, 200 certified streams", elapsed, "0 violations")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    result = gradient_check(50, seed=0)
    elapsed = time.perf_counter() - start
    assert len(result.rel_errors) == 50
    assert result.tolerance == 1e-4
    assert result.max_rel_error < 1e-4, f"max rel error {result.max_rel_error:.2e}"
    assert elapsed < 10.0
    announce(2, "gradient vs central differences", elapsed, f"max rel err {result.max_rel_error:.1e}")


def test_criterion_3_mst_oracle_equivalence():
    start = time.perf_counter()
    rng = SeededRng(3)
    for case in range(100):
        r = rng.child(case)
        size = int(r.integers(2, 13))
        capacity = int(r.integers(1, size))
        pool = random_class_pool(r, size, capacity, 4, 3)
        keys = pool.keys.copy()
        assignment = _compact_class_pool(pool)
        normed = keys / np.linalg.norm(keys, axis=1, keepdims=True)
        dist = 1.0 - normed @ normed.T
        expected = single_linkage_bruteforce(dist, capacity)
        assert partition_sets(dict(enumerate(assignment))) == partition_sets(expected), f"case {case}"
        assert len(pool) == capacity
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(3, "spanning-tree compaction vs brute-force single linkage", elapsed, "100 pools")


def test_criterion_4_pool_bounds_and_entropy_gate(lemma_suite, repeating_run):
    start = time.perf_counter()
    reports, capacities, _ = lemma_suite
    for report, (n_d, n_c) in zip(reports, capacities):
        for row in report.metrics.rows:
            assert row.pool_d_size <= n_d
            assert row.pool_c_size <= n_c
    result, hp, _ = repeating_run
    for row in result.metrics.rows:
        assert row.pool_d_size <= hp.n_d
        assert row.pool_c_size <= hp.n_c

    # crafted gate-only batches: every record above the entropy gate leaves
    # the class pool bitwise untouched
    rng = SeededRng(44)
    pool = random_class_pool(rng, 6, 10, 4, 8)
    before = b"".join(k.tobytes() + p.tobytes() for k, p in zip(pool.keys, pool.prompts))
    for _ in range(5):
        records = random_class_records(rng, pool, 16, fission_prob=0.4)
        gamma_h = 0.0  # every distribution has entropy > 0
        summary = update_class_pool(pool, records, Hyperparams(gamma_h=gamma_h, alpha_c=0.1))
        assert summary.skipped == list(range(16))
        assert not summary.appended and not summary.updated
    after = b"".join(k.tobytes() + p.tobytes() for k, p in zip(pool.keys, pool.prompts))
    assert after == before
    elapsed = time.perf_counter() - start
    announce(4, "pool capacity bounds and entropy gate", elapsed)


def test_criterion_5_additive_shift_recovery():
    start = time.perf_counter()
    ratios = []
    err_gaps = []
    for seed in (0, 1, 2):
        cfg = StreamConfig(
            domain_order=(1,),
            batches_per_domain=40,
            batch_size=16,
            input_dim=8,
            num_classes=3,
            seed=seed,
        )
        world = build_world(cfg, noise_std=NOISE)
        rng = SeededRng(cfg.seed)
        direction = rng.child(2).normal(size=8)
        delta = (
            direction
            / np.linalg.norm(world.model.extractor @ direction)
            * 5.0
            * np.linalg.norm(world.source_stats.sigma)
        )
        spec = DomainSpec(1, delta, world.class_means, NOISE)
        stream = generate_stream(cfg, [spec], rng.child(3))
        result = run_ctta(
            world.model, stream, Hyperparams(k_steps=50), world.source_stats, rng=rng.child(4)
        )
        assert len(result.domain_pool) == 1
        learned = result.domain_pool.prompts[0]
        ratios.append(float(np.linalg.norm(learned + delta) / np.linalg.norm(delta)))

        xs, ys = draw_labeled_samples(world.class_means, 4000, NOISE, rng.child(9))
        source_err = float(np.mean(pseudo_labels(world.model, xs).argmax(1) != ys))
        final10 = float(np.mean([r.error_rate for r in result.metrics.rows[-10:]]))
        err_gaps.append(abs(final10 - source_err))
    elapsed = time.perf_counter() - start
    assert max(ratios) <= 0.1, f"prompt residual ratios {ratios}"
    assert max(err_gaps) <= 0.02, f"error gaps {err_gaps}"
    assert elapsed < 30.0
    announce(5, "additive-shift recovery", elapsed, f"worst residual {max(ratios):.3f}")


def test_criterion_6_repeating_domain_stability(repeating_run):
    result, hp, elapsed = repeating_run
    rows = result.metrics.rows
    rounds = result.metrics.round_index()
    assert max(rounds) == 9
    end_round_1 = max(i for i, r in enumerate(rounds) if r == 0)
    ref = rows[end_round_1]
    for row in rows[end_round_1:]:
        assert row.pool_d_size == ref.pool_d_size, "domain pool grew after round 1"
        assert row.param_count == ref.param_count, "parameter count changed after round 1"
    per_round = result.metrics.per_round_error()
    assert len(per_round) == 10
    later = float(np.mean(per_round[1:]))
    assert later <= per_round[0] + 0.005, f"rounds 2-10 mean {later:.4f} vs round 1 {per_round[0]:.4f}"
    assert elapsed < 60.0
    announce(
        6,
        "repeating-domain stability",
        elapsed,
        f"round-1 err {per_round[0]:.3f}, rounds 2-10 mean {later:.3f}",
    )


def test_criterion_7_algorithm_interpreter_equivalence():
    start = time.perf_counter()
    rng = SeededRng(7)
    for case in range(100):
        r = rng.child(case)
        n = int(r.integers(0, 9))
        capacity = int(r.integers(max(1, n - 3), n + 5))
        pool = random_class_pool(r, n, capacity, 3, 4)
        records = random_class_records(r, pool, int(r.integers(1, 10)), fission_prob=0.4)
        gamma_h = float(r.uniform(0.0, np.log(3)))
        alpha_c = float(r.uniform(0.0, 1.0))
        expected = algorithm1_reference(
            class_pool_tuples(pool), capacity, records, gamma_h, alpha_c, case
        )
        hp = Hyperparams(gamma_h=gamma_h, alpha_c=alpha_c)
        update_class_pool(pool, records, hp, created_at=case)
        assert len(pool) == len(expected)
        for got_key, got_prompt, got_created, (key, prompt, created) in zip(
            pool.keys, pool.prompts, pool.created_at, expected
        ):
            assert got_key.tobytes() == key.tobytes()
            assert got_prompt.tobytes() == prompt.tobytes()
            assert got_created == created

        nd = int(r.integers(0, 6))
        dcap = int(r.integers(max(1, nd - 1), nd + 3))
        dpool = random_domain_pool(r, nd, dcap, 3, 4)
        record = random_domain_record(r, dpool, fission_prob=0.5)
        alpha_d = float(r.uniform(0.0, 1.0))
        dexpected = algorithm2_reference(domain_pool_tuples(dpool), dcap, *record, alpha_d, case)
        update_domain_pool(dpool, *record, Hyperparams(alpha_d=alpha_d), created_at=case)
        assert len(dpool) == len(dexpected)
        for got, (mu, sigma, prompt, created) in zip(domain_pool_tuples(dpool), dexpected):
            got_mu, got_sigma, got_prompt, got_created = got
            assert got_mu.tobytes() == mu.tobytes()
            assert got_sigma.tobytes() == sigma.tobytes()
            assert got_prompt.tobytes() == prompt.tobytes()
            assert got_created == created
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(7, "pool updates vs pseudocode interpreters", elapsed, "100 instances each")


def test_criterion_8_determinism_and_format(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "domain_order": [0, 1],
                "batches_per_domain": 5,
                "batch_size": 16,
                "input_dim": 8,
                "num_classes": 3,
                "seed": 0,
                "theta": THETA,
                "n_d": 5,
            }
        )
    )
    stream_path = tmp_path / "stream.csv"
    cert_path = tmp_path / "certificate.json"
    assert (
        main(
            [
                "gen-stream",
                "--config", str(config),
                "--seed", "7",
                "--out", str(stream_path),
                "--certificate", str(cert_path),
                "--noise-std", str(NOISE),
            ]
        )
        == 0
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert (
            main(
                [
                    "run",
                    "--config", str(config),
                    "--stream", str(stream_path),
                    "--seed", "7",
                    "--out-dir", str(out),
                    "--certificate", str(cert_path),
                    "--noise-std", str(NOISE),
                ]
            )
            == 0
        )
        outputs.append(out)
    a, b = outputs
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    # stream file format round-trips bit-identically at 9 significant digits
    loaded = read_stream(stream_path)
    second_path = tmp_path / "stream2.csv"
    write_stream(loaded, second_path)
    assert stream_path.read_bytes() == second_path.read_bytes()
    reloaded = read_stream(second_path)
    for x, y in zip(loaded, reloaded):
        assert x.samples.tobytes() == y.samples.tobytes()
    elapsed = time.perf_counter() - start
    announce(8, "byte-identical reruns and stream round-trip", elapsed)
