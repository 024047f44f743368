import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctta import numerics
from ctta.fusion import DomainUpdateSummary
from ctta.harness import (
    BatchMetrics,
    ClusterLedger,
    Hyperparams,
    RunMetrics,
    build_world,
    gradient_check,
    run_ctta,
    verify_lemmas,
)
from ctta.model import key_stats, pseudo_labels
from ctta.numerics import SeededRng
from ctta.pools import ClassPromptPool, DomainPromptPool
from ctta.stream import (
    SeparationCertificate,
    StreamConfig,
    generate_stream,
    make_separated,
    read_stream,
)
from instancegen import load_pool
from reference import round_index_reference, two_pass_stats


def onehot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


@pytest.fixture(scope="module")
def world():
    cfg = StreamConfig(domain_order=(0,), seed=41, input_dim=8, num_classes=3)
    return cfg, build_world(cfg, noise_std=0.4)


def certified_setup(seed, n_domains, theta=4.0, batches_per_domain=10, rounds=1):
    order = tuple(range(n_domains)) * rounds
    cfg = StreamConfig(
        domain_order=order,
        batches_per_domain=batches_per_domain,
        batch_size=16,
        input_dim=8,
        num_classes=3,
        seed=seed,
        theta=theta,
    )
    w = build_world(cfg, noise_std=0.4)
    rng = SeededRng(seed)
    specs, cert = make_separated(
        cfg, n_domains, theta, w.model, rng.child(2), noise_std=0.4, class_means=w.class_means
    )
    stream = generate_stream(cfg, specs, rng.child(3))
    return cfg, w, specs, cert, stream, rng


def test_zero_prompt_pools_with_no_steps_reproduce_source_error(world):
    cfg, w = world
    stream = generate_stream(
        StreamConfig(domain_order=(0,), batches_per_domain=5, batch_size=16, input_dim=8, num_classes=3, seed=43),
        [w.source_spec],
        SeededRng(43),
    )
    hp = Hyperparams(k_steps=0)
    class_pool = load_pool(
        ClassPromptPool(hp.n_c, 8, 3), [(onehot(k, 3), np.zeros(8), 0) for k in range(3)]
    )
    domain_pool = load_pool(
        DomainPromptPool(hp.n_d, 8, w.model.feature_dim), [(w.source_stats.concat(), np.zeros(8), 0)]
    )
    result = run_ctta(
        w.model, stream, hp, w.source_stats, rng=SeededRng(1),
        class_pool=class_pool, domain_pool=domain_pool,
    )
    for row, batch in zip(result.metrics.rows, stream):
        source_err = float(np.mean(pseudo_labels(w.model, batch.samples).argmax(1) != batch.class_ids))
        assert row.error_rate == source_err
        assert row.fissioned_d == 0 and row.fissioned_c == 0


def test_identical_seed_and_config_give_identical_metrics(world):
    cfg, w = world
    stream = generate_stream(
        StreamConfig(domain_order=(0,), batches_per_domain=4, batch_size=8, input_dim=8, num_classes=3, seed=47),
        [w.source_spec],
        SeededRng(47),
    )
    hp = Hyperparams()
    a = run_ctta(w.model, stream, hp, w.source_stats, rng=SeededRng(9))
    b = run_ctta(w.model, stream, hp, w.source_stats, rng=SeededRng(9))
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert a.metrics.summary() == b.metrics.summary()


class CountingTable(dict):
    """The parameter table, counting lookups: one per ``check_param`` call."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def __getitem__(self, name):
        self.lookups += 1
        return super().__getitem__(name)


@pytest.mark.parametrize("batches", [1, 6])
def test_hyperparams_are_checked_once_per_run(world, monkeypatch, batches):
    # the stages read the record Hyperparams checked when it was built; in a
    # run only the two pool constructors check values, three each: capacity,
    # prompt_dim and key width
    cfg, w = world
    scfg = StreamConfig(domain_order=(0,), batches_per_domain=batches, batch_size=8, input_dim=8, num_classes=3, seed=59)
    stream = generate_stream(scfg, [w.source_spec], SeededRng(59))
    hp = Hyperparams(k_steps=2)
    table = CountingTable(numerics._PARAMS)
    monkeypatch.setattr(numerics, "_PARAMS", table)
    result = run_ctta(w.model, stream, hp, w.source_stats, rng=SeededRng(3))
    assert len(result.metrics.rows) == batches
    assert table.lookups == 6


def test_engine_never_reads_labels(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0,), batches_per_domain=4, batch_size=8, input_dim=8, num_classes=3, seed=53)
    stream = generate_stream(scfg, [w.source_spec], SeededRng(53))
    scrambled = [
        type(b)(b.samples.copy(), (b.class_ids + 1) % 3, b.domain_id, b.batch_index)
        for b in stream
    ]
    hp = Hyperparams()
    a = run_ctta(w.model, stream, hp, w.source_stats, rng=SeededRng(2))
    b = run_ctta(w.model, scrambled, hp, w.source_stats, rng=SeededRng(2))
    for ra, rb in zip(a.metrics.rows, b.metrics.rows):
        assert ra.loss_d == rb.loss_d and ra.loss_c == rb.loss_c
        assert ra.pool_d_size == rb.pool_d_size and ra.pool_c_size == rb.pool_c_size
        assert ra.error_rate != rb.error_rate or ra.error_rate in (0.0, 1.0)


def test_param_count_formula_enforced(world):
    cfg, w = world
    stream = generate_stream(
        StreamConfig(domain_order=(0,), batches_per_domain=3, batch_size=8, input_dim=8, num_classes=3, seed=59),
        [w.source_spec],
        SeededRng(59),
    )
    result = run_ctta(w.model, stream, Hyperparams(), w.source_stats, rng=SeededRng(3))
    for row in result.metrics.rows:
        assert row.param_count == (row.pool_d_size + row.pool_c_size) * 8


def test_repeating_domains_pool_sizes_stable_after_round_one():
    cfg, w, specs, cert, stream, rng = certified_setup(61, 3, rounds=10, batches_per_domain=5)
    hp = Hyperparams(gamma_d=cert.theta / 2, n_d=6)
    result = run_ctta(w.model, stream, hp, w.source_stats, rng=rng.child(4))
    rows = result.metrics.rows
    rounds = result.metrics.round_index()
    assert max(rounds) == 9
    end_round_1 = max(i for i, r in enumerate(rounds) if r == 0)
    ref = rows[end_round_1]
    for row in rows[end_round_1:]:
        assert row.pool_d_size == ref.pool_d_size
        assert row.param_count == ref.param_count
    per_round = result.metrics.per_round_error()
    assert len(per_round) == 10
    assert np.mean(per_round[1:]) <= per_round[0] + 0.005


@st.composite
def _domain_sequences(draw):
    """A run's true domain id per batch: one block, a pattern of blocks repeated
    with each block's length drawn anew, distinct blocks that never repeat, or
    any ids at all."""
    ids = st.integers(min_value=0, max_value=5)
    lengths = st.integers(min_value=1, max_value=4)
    kind = draw(st.sampled_from(["single", "repeated", "distinct", "free"]))
    if kind == "single":
        return [draw(ids)] * draw(lengths)
    if kind == "free":
        return draw(st.lists(ids, max_size=40))
    if kind == "repeated":
        blocks = draw(st.lists(ids, min_size=1, max_size=4)) * draw(lengths)
    else:
        blocks = draw(st.lists(ids, max_size=6, unique=True))
    return [d for d in blocks for _ in range(draw(lengths))]


@given(_domain_sequences())
@example([])
@settings(max_examples=300, deadline=None)
def test_round_index_matches_the_block_loop(seq):
    rows = [BatchMetrics(i, d, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0) for i, d in enumerate(seq)]
    assert RunMetrics(rows).round_index() == round_index_reference(seq)


def test_verify_lemmas_passes_on_certified_stream():
    cfg, w, specs, cert, stream, rng = certified_setup(67, 4, batches_per_domain=8)
    hp = Hyperparams(gamma_d=cert.theta / 2, n_d=7)
    report = verify_lemmas(stream, cert, hp, w.model, w.source_stats, rng=rng.child(4))
    assert report.passed and report.status == "pass"
    assert report.num_domains == 4


def test_verify_lemmas_single_domain_trivially_clean(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0,), batches_per_domain=6, batch_size=16, input_dim=8, num_classes=3, seed=71)
    stream = generate_stream(scfg, [w.source_spec], SeededRng(71))
    keys = [key_stats(w.model, b.samples).concat() for b in stream]
    intra = max(
        float(np.linalg.norm(a - b)) for i, a in enumerate(keys) for b in keys[i + 1 :]
    )
    cert = SeparationCertificate(2 * intra, intra, np.inf, 20, 71)
    hp = Hyperparams(gamma_d=intra * 1.5, n_d=5)
    report = verify_lemmas(stream, cert, hp, w.model, w.source_stats, rng=SeededRng(4))
    assert report.passed


def test_verify_lemmas_reports_hypothesis_violation_not_lemma_failure():
    cfg, w, specs, cert, stream, rng = certified_setup(73, 3, batches_per_domain=5)
    hp = Hyperparams(gamma_d=cert.min_inter * 2, n_d=6)  # gamma_d above theta: hypothesis broken
    report = verify_lemmas(stream, cert, hp, w.model, w.source_stats, rng=rng.child(4))
    assert report.status == "hypothesis_violation"
    assert not report.violations
    hp2 = Hyperparams(gamma_d=cert.theta / 2, n_d=3)  # capacity not above domain count
    report2 = verify_lemmas(stream, cert, hp2, w.model, w.source_stats, rng=rng.child(4))
    assert report2.status == "hypothesis_violation"


def test_ledger_catches_mislabeled_stream():
    cfg, w, specs, cert, stream, rng = certified_setup(79, 2, batches_per_domain=3)
    # lie about the second domain: label its batches as new ids so first
    # encounters match foreign prompts
    lied = [
        type(b)(b.samples, b.class_ids, 5 if b.domain_id == 1 and b.batch_index % 2 else b.domain_id, b.batch_index)
        for b in stream
    ]
    hp = Hyperparams(gamma_d=cert.theta / 2, n_d=9)
    report = verify_lemmas(lied, cert, hp, w.model, w.source_stats, rng=rng.child(4))
    assert report.status == "lemma_violation"
    assert report.violations


@pytest.mark.parametrize("seed", range(6))
def test_fusion_under_tiny_gamma_only_merges_same_cluster(seed):
    # gamma_d far below the intra spread forces a fission every batch, so the
    # pool overflows constantly and nearest-pair fusion runs hot; under the
    # separation assumption it must still never merge across clusters
    cfg, w, specs, cert, stream, rng = certified_setup(100 + seed, 3, batches_per_domain=8)
    hp = Hyperparams(gamma_d=min(1e-6, cert.theta / 4), n_d=6)
    ledger = ClusterLedger()
    result = run_ctta(w.model, stream, hp, w.source_stats, rng=rng.child(4), ledger=ledger)
    assert sum(r.fused_d for r in result.metrics.rows) > 10
    assert not ledger.violations
    assert len(result.domain_pool) <= 6


def test_key_stats_of_source_samples_contracts(world):
    cfg, w = world
    row = np.ones(8)
    stats = key_stats(w.model, np.tile(row, (300, 1)))
    np.testing.assert_allclose(stats.sigma, np.zeros(w.model.feature_dim), atol=1e-12)

    with pytest.raises(ValueError):
        key_stats(w.model, row[None, :])

    rng = SeededRng(83)
    samples = rng.normal(size=(310, 8))
    stats = key_stats(w.model, samples)
    mu, sigma = two_pass_stats([w.model.extractor @ s for s in samples])
    np.testing.assert_allclose(stats.mu, mu, rtol=1e-10)
    np.testing.assert_allclose(stats.sigma, sigma, rtol=1e-10)


def test_source_batch_equal_to_probe_batch_gives_zero_alignment(world):
    cfg, w = world
    rng = SeededRng(89)
    samples = rng.normal(size=(32, 8))
    stats = key_stats(w.model, samples)
    from ctta.objective import loss

    out = loss(w.model, samples, np.zeros(8), np.zeros((32, 8)), stats, 3.0, 1.0)
    assert out.loss_d == pytest.approx(0.0, abs=1e-9)


def test_gradient_check_small_run_passes():
    result = gradient_check(8, seed=5)
    assert result.passed
    assert len(result.rel_errors) == 8
    assert result.max_rel_error < 1e-4


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_configs": 0}, "num_configs must be Integral in [1, inf], got 0"),
        ({"num_configs": 2.5}, "num_configs must be Integral in [1, inf], got 2.5"),
        ({"num_configs": True}, "num_configs must be Integral in [1, inf], got True"),
        ({"seed": -1}, "seed must be Integral in [0, inf], got -1"),
        ({"seed": 1.5}, "seed must be Integral in [0, inf], got 1.5"),
        ({"seed": True}, "seed must be Integral in [0, inf], got True"),
    ],
    ids=[
        "num-configs-0", "num-configs-float", "num-configs-bool",
        "seed-negative", "seed-float", "seed-bool",
    ],
)
def test_gradient_check_rejects_settings_naming_them(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gradient_check(**{"num_configs": 1, **kwargs})


def test_hyperparams_defaults_are_the_documented_values():
    hp = Hyperparams()
    assert (
        hp.gamma_d,
        hp.gamma_c,
        hp.gamma_h,
        hp.alpha_d,
        hp.alpha_c,
        hp.tau_d,
        hp.tau_c,
        hp.a,
        hp.alpha_std,
        hp.n_d,
        hp.n_c,
        hp.lr_domain,
        hp.lr_class,
        hp.k_steps,
        hp.init_scale,
    ) == (25.0, 0.005, 2.0, 0.1, 0.1, 3.0, 1.0, 3.0, 1.0, 20, 100, 0.1, 0.001, 1, 0.01)


def test_verify_lemmas_rejects_missing_certificate():
    cfg, w, specs, cert, stream, rng = certified_setup(97, 2, batches_per_domain=3)
    with pytest.raises(ValueError, match="certificate"):
        verify_lemmas(
            stream, None, Hyperparams(), w.model, w.source_stats, rng=SeededRng(0)
        )


def test_hyperparams_validation_and_round_trip():
    hp = Hyperparams(gamma_d=2.0, n_d=7)
    assert Hyperparams.from_dict(asdict(hp)) == hp
    with pytest.raises(ValueError, match="unknown"):
        Hyperparams.from_dict({"gamma_x": 1.0})
    with pytest.raises(ValueError):
        Hyperparams(gamma_d=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(alpha_c=1.5)
    # values of the wrong type are rejected by name, not coerced or compared
    for key, value in [
        ("n_c", 100.5),
        ("k_steps", True),
        ("gamma_c", "0.5"),
    ]:
        with pytest.raises(ValueError, match=f"^{key} must be"):
            Hyperparams.from_dict({key: value})


def test_run_rejects_empty_stream(world):
    cfg, w = world
    with pytest.raises(ValueError):
        run_ctta(w.model, [], Hyperparams(), w.source_stats, rng=SeededRng(0))


@pytest.mark.parametrize("dim", [1, 5])
def test_run_rejects_source_stats_of_the_wrong_dimension(dim):
    # on the demo stream (8 features) a 1-d source used to broadcast and adapt
    # toward a wrong target, and a 5-d one to fail with numpy's unnamed error.
    # run_ctta, and verify_lemmas through it, check before any pool is built
    # or any draw is made, so the caller's rng has not advanced.
    demo = Path(__file__).resolve().parent.parent / "demo"
    stream = read_stream(demo / "stream.csv")
    certificate = SeparationCertificate.from_dict(json.loads((demo / "certificate.json").read_text()))
    cfg = StreamConfig(domain_order=(0, 1, 2, 0, 1, 2), batch_size=16, input_dim=8, num_classes=3)
    w = build_world(cfg)
    assert w.model.feature_dim == 8
    wrong = numerics.BatchStats(np.zeros(dim), np.ones(dim))
    hp = Hyperparams(gamma_d=2.0, n_d=6, k_steps=10)
    message = f"^source statistics must have dimension 8 .*got {dim}$"
    untouched = SeededRng(7).normal(size=4).tolist()
    rng = SeededRng(7)
    with pytest.raises(ValueError, match=message):
        run_ctta(w.model, stream, hp, wrong, rng=rng)
    assert rng.normal(size=4).tolist() == untouched
    rng = SeededRng(7)
    with pytest.raises(ValueError, match=message):
        verify_lemmas(stream, certificate, hp, w.model, wrong, rng=rng)
    assert rng.normal(size=4).tolist() == untouched


def _two_source_batches(w):
    scfg = StreamConfig(domain_order=(0,), batches_per_domain=2, batch_size=8, input_dim=8, num_classes=3, seed=61)
    return generate_stream(scfg, [w.source_spec], SeededRng(61))


@pytest.mark.parametrize(
    "keyword, pool, message",
    [
        ("class_pool", ClassPromptPool(5, 8, 3), "class_pool has capacity 5, the run's is 100"),
        ("class_pool", ClassPromptPool(100, 4, 3), "class_pool has prompt_dim 4, the run's is 8"),
        ("class_pool", ClassPromptPool(100, 8, 2), "class_pool has num_classes 2, the run's is 3"),
        ("domain_pool", DomainPromptPool(7, 8, 8), "domain_pool has capacity 7, the run's is 20"),
        ("domain_pool", DomainPromptPool(20, 8, 3), "domain_pool has feature_dim 3, the run's is 8"),
    ],
    ids=["class-capacity", "class-prompt-dim", "class-key-width", "domain-capacity", "domain-key-width"],
)
def test_run_refuses_a_given_pool_that_disagrees_with_the_run(world, keyword, pool, message):
    # a small class pool used to run at its own capacity and compact; a pool
    # of the wrong width failed only at batch 0, blaming the batch. The check
    # comes before any draw, so the caller's rng has not advanced.
    cfg, w = world
    untouched = SeededRng(7).normal(size=4).tolist()
    rng = SeededRng(7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_ctta(w.model, _two_source_batches(w), Hyperparams(), w.source_stats, rng=rng, **{keyword: pool})
    assert rng.normal(size=4).tolist() == untouched


def test_verify_lemmas_names_an_invalid_certificate_and_gamma_d_not_below_theta(world):
    cfg, w = world
    certificate = SeparationCertificate(4.0, 5.0, 3.0, 20, 61)  # max_intra above theta
    hp = Hyperparams(gamma_d=4.0, n_d=2)
    report = verify_lemmas(_two_source_batches(w), certificate, hp, w.model, w.source_stats, rng=SeededRng(0))
    assert report.status == "hypothesis_violation"
    assert report.hypothesis_issues == [
        "certificate invalid: max_intra=5, theta=4, min_inter=3",
        "gamma_d=4 must be below theta=4",
    ]
    assert report.violations == [] and report.metrics is None


def test_ledger_names_a_fusion_of_entries_of_two_domains():
    ledger = ClusterLedger(entry_labels=[0, 1])
    # a same-domain fusion passes: the new entry 2 of domain 1 into entry 1
    ledger.on_domain_update(6, 1, DomainUpdateSummary(fissioned=True, appended_index=2, fused_pair=(1, 2)))
    assert ledger.violations == [] and ledger.entry_labels == [0, 1]
    ledger.on_domain_update(7, 1, DomainUpdateSummary(fissioned=True, appended_index=2, fused_pair=(0, 2)))
    assert ledger.violations == ["batch 7: fused entries of domains 0 and 1"]
    assert ledger.entry_labels == [0, 1]
