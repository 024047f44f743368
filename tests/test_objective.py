import math

import numpy as np
import pytest

from ctta import objective
from ctta.model import ToyModel
from ctta.numerics import BatchStats, Hyperparams, SeededRng
from ctta.objective import (
    AdamWState,
    adamw_step,
    finite_diff_grad,
    grad,
    loss,
    optimize_prompts,
)


def make_setup(seed=0, b=6, input_dim=4, feature_dim=4, num_classes=3):
    rng = SeededRng(seed)
    model = ToyModel(
        rng.normal(size=(feature_dim, input_dim)) / np.sqrt(input_dim),
        rng.normal(size=(num_classes, feature_dim)),
        rng.normal(size=num_classes),
    )
    x = rng.normal(size=(b, input_dim))
    p_d = rng.normal(size=input_dim, scale=0.5)
    p_c = rng.normal(size=(b, input_dim), scale=0.5)
    source = BatchStats(rng.normal(size=feature_dim), np.abs(rng.normal(size=feature_dim)) + 0.2)
    return model, x, p_d, p_c, source


def test_loss_zero_at_perfectly_aligned_onehot_configuration():
    # one-hot logits need infinite magnitude, so engineer stats-only zero: a = 0
    model, x, _, _, _ = make_setup()
    zeros = np.zeros(model.input_dim)
    z = x @ model.extractor.T
    mu = z.mean(axis=0)
    sigma = np.sqrt(((z - mu) ** 2).mean(axis=0))
    source = BatchStats(mu, sigma)
    out = loss(model, x, zeros, np.zeros_like(x), source, 0.0, 1.0)
    assert out.loss_d == pytest.approx(0.0, abs=1e-12)
    assert out.total == pytest.approx(0.0, abs=1e-12)


def test_loss_a_zero_ignores_predictions():
    model, x, p_d, p_c, source = make_setup()
    out = loss(model, x, p_d, p_c, source, 0.0, 1.0)
    assert out.total == out.loss_d
    assert 0.0 <= out.loss_c <= math.log(model.num_classes) + 1e-12


def test_loss_matches_straight_line_recomputation():
    model, x, p_d, p_c, source = make_setup(seed=3)
    a, alpha_std = 2.5, 0.7
    out = loss(model, x, p_d, p_c, source, a, alpha_std)

    z = (x + p_d + p_c) @ model.extractor.T
    mu = z.mean(axis=0)
    sigma = np.sqrt(((z - mu) ** 2).mean(axis=0))
    l_d = np.linalg.norm(source.mu - mu) + alpha_std * np.linalg.norm(source.sigma - sigma)
    ent = []
    for t in range(x.shape[0]):
        logits = model.head_weight @ z[t] + model.head_bias
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        ent.append(-(p * np.log(p)).sum())
    l_c = float(np.mean(ent))
    assert out.loss_d == pytest.approx(l_d, rel=1e-12)
    assert out.loss_c == pytest.approx(l_c, rel=1e-12)
    assert out.total == out.loss_d + a * out.loss_c


def test_loss_requires_two_samples():
    model, x, p_d, p_c, source = make_setup()
    with pytest.raises(ValueError):
        loss(model, x[:1], p_d, p_c[:1], source, 1.0, 1.0)


def test_grad_zero_at_global_minimum():
    model, x, _, _, _ = make_setup()
    zeros = np.zeros(model.input_dim)
    z = x @ model.extractor.T
    mu = z.mean(axis=0)
    sigma = np.sqrt(((z - mu) ** 2).mean(axis=0))
    source = BatchStats(mu, sigma)
    g_d, g_c = grad(model, x, zeros, np.zeros_like(x), source, 0.0, 1.0)
    np.testing.assert_array_equal(g_d, np.zeros(model.input_dim))
    np.testing.assert_array_equal(g_c, np.zeros_like(x))


def test_grad_entropy_share_is_replication_invariant():
    model, x, p_d, p_c, source = make_setup(seed=5)
    g_d1, _ = grad(model, x, p_d, p_c, source, 3.0, 0.0001)
    x2 = np.vstack([x, x])
    p_c2 = np.vstack([p_c, p_c])
    g_d2, _ = grad(model, x2, p_d, p_c2, source, 3.0, 0.0001)
    # batch statistics and mean entropy are replication invariant, so is the gradient
    np.testing.assert_allclose(g_d1, g_d2, rtol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_grad_matches_finite_differences(seed):
    rng = SeededRng(seed)
    b = int(rng.integers(4, 10))
    model, x, p_d, p_c, source = make_setup(seed=seed + 50, b=b)
    a = float(rng.uniform(0.0, 4.0))
    alpha_std = float(rng.uniform(0.3, 2.0))
    g_d, g_c = grad(model, x, p_d, p_c, source, a, alpha_std)
    f_d, f_c = finite_diff_grad(model, x, p_d, p_c, source, a, alpha_std)
    scale = max(np.abs(f_d).max(), np.abs(f_c).max(), 1e-12)
    assert np.abs(g_d - f_d).max() / scale < 1e-4
    assert np.abs(g_c - f_c).max() / scale < 1e-4


def test_total_invariant_under_batch_permutation():
    model, x, p_d, p_c, source = make_setup(seed=9)
    out = loss(model, x, p_d, p_c, source, 3.0, 1.0)
    perm = SeededRng(1).permutation(x.shape[0])
    out_p = loss(model, x[perm], p_d, p_c[perm], source, 3.0, 1.0)
    assert out_p.total == pytest.approx(out.total, rel=1e-12)

    _, g_c = grad(model, x, p_d, p_c, source, 3.0, 1.0)
    _, g_c_p = grad(model, x[perm], p_d, p_c[perm], source, 3.0, 1.0)
    np.testing.assert_allclose(g_c_p, g_c[perm], rtol=1e-9)


def test_grad_with_a_zero_matches_fd_of_alignment_term():
    model, x, p_d, p_c, source = make_setup(seed=11)
    g_d, g_c = grad(model, x, p_d, p_c, source, 0.0, 1.0)
    f_d, f_c = finite_diff_grad(model, x, p_d, p_c, source, 0.0, 1.0)
    scale = max(np.abs(f_d).max(), np.abs(f_c).max(), 1e-12)
    assert np.abs(g_d - f_d).max() / scale < 1e-4
    assert np.abs(g_c - f_c).max() / scale < 1e-4


def test_adamw_zero_grad_keeps_prompt():
    state = AdamWState.fresh(4, lr=0.1)
    prompt = np.array([1.0, -2.0, 3.0, 0.0])
    np.testing.assert_array_equal(adamw_step(state, prompt, np.zeros(4)), prompt)


def test_adamw_constant_gradient_approaches_signed_lr_steps():
    state = AdamWState.fresh(2, lr=0.1)
    prompt = np.zeros(2)
    g = np.array([0.3, -4.0])
    for _ in range(200):
        new = adamw_step(state, prompt, g)
        step = new - prompt
        prompt = new
    np.testing.assert_allclose(step, [-0.1, 0.1], rtol=1e-6)


def test_adamw_rejects_nan_gradient():
    state = AdamWState.fresh(2, lr=0.1)
    with pytest.raises(ValueError):
        adamw_step(state, np.zeros(2), np.array([np.nan, 0.0]))
    assert state.step == 0  # nothing stored


def test_adamw_matches_reference_recurrence():
    rng = SeededRng(21)
    state = AdamWState.fresh(3, lr=0.05)
    prompt = rng.normal(size=3)
    m = np.zeros(3)
    v = np.zeros(3)
    ref = prompt.copy()
    for t in range(1, 20):
        g = rng.normal(size=3)
        prompt = adamw_step(state, prompt, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref = ref - 0.05 * (m_hat / (np.sqrt(v_hat) + 1e-8))
        np.testing.assert_allclose(prompt, ref, rtol=1e-12)


def test_optimize_zero_steps_returns_composed_prompts():
    model, x, p_d, p_c, source = make_setup(seed=13)
    hp = Hyperparams(a=3.0, alpha_std=1.0, lr_domain=0.1, lr_class=0.001, k_steps=0)
    out_d, out_c, breakdown = optimize_prompts(model, x, p_d, p_c, source, hp)
    np.testing.assert_array_equal(out_d, p_d)
    np.testing.assert_array_equal(out_c, p_c)
    direct = loss(model, x, p_d, p_c, source, 3.0, 1.0)
    assert breakdown.total == direct.total


def zero_spread_setup():
    # a zero extractor row makes feature 0 exactly 0 on every prompted row, so
    # sigma[0] == 0 at every step and the gradient takes the where= branch
    model, x, p_d, p_c, source = make_setup(seed=15, b=7)
    extractor = model.extractor.copy()
    extractor[0] = 0.0
    model = ToyModel(extractor, model.head_weight, model.head_bias)
    return model, x, p_d, p_c, source


HAND_TRACED = {
    "b=2": (lambda: make_setup(seed=14, b=2), dict(a=2.0, alpha_std=0.5, lr_class=0.01, k_steps=3)),
    "demo geometry": (
        lambda: make_setup(seed=16, b=16, input_dim=8, feature_dim=8, num_classes=3),
        dict(k_steps=10),
    ),
    "zero-spread feature": (zero_spread_setup, dict(a=1.5, alpha_std=2.0, lr_class=0.01, k_steps=4)),
    "no steps": (lambda: make_setup(seed=17, b=5), dict(k_steps=0)),
}


def test_optimize_matches_hand_traced_calls():
    for case, (setup, overrides) in HAND_TRACED.items():
        model, x, p_d, p_c, source = setup()
        hp = Hyperparams(**overrides)
        if case == "zero-spread feature":
            z = (x + p_d + p_c) @ model.extractor.T
            assert not z[:, 0].any() and source.sigma[0] > 0.0
        out_d, out_c, breakdown = optimize_prompts(model, x, p_d, p_c, source, hp)
        ref_d, ref_c = p_d.copy(), p_c.copy()
        sd = AdamWState.fresh(ref_d.shape, hp.lr_domain)
        sc = AdamWState.fresh(ref_c.shape, hp.lr_class)
        for _ in range(hp.k_steps):
            g_d, g_c = grad(model, x, ref_d, ref_c, source, hp.a, hp.alpha_std)
            ref_d = adamw_step(sd, ref_d, g_d)
            ref_c = adamw_step(sc, ref_c, g_c)
        ref = loss(model, x, ref_d, ref_c, source, hp.a, hp.alpha_std)
        assert out_d.tobytes() == ref_d.tobytes(), case
        assert out_c.tobytes() == ref_c.tobytes(), case
        got = (breakdown.loss_d, breakdown.loss_c, breakdown.total)
        assert got == (ref.loss_d, ref.loss_c, ref.total), case


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(objective, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(objective, name, counted)
    return calls


@pytest.mark.parametrize("k_steps", [0, 1, 10])
def test_optimize_checks_its_inputs_once_per_call(monkeypatch, k_steps):
    model, x, p_d, p_c, source = make_setup(seed=18, b=8)
    checks = count_calls(monkeypatch, "check_prompted")
    steps = count_calls(monkeypatch, "adamw_step")
    optimize_prompts(model, x, p_d, p_c, source, Hyperparams(k_steps=k_steps))
    assert len(checks) == 1
    assert len(steps) == 2 * k_steps


def bad_inputs():
    model, x, p_d, p_c, source = make_setup(seed=19, b=6)
    nan_x = x.copy()
    nan_x[2, 1] = np.nan
    yield "one row", "batch", (model, x[:1], p_d, p_c[:1], source)
    yield "nan batch", "batch", (model, nan_x, p_d, p_c, source)
    yield "domain dim", "domain prompt", (model, x, p_d[:-1], p_c, source)
    yield "class rows", "class prompt", (model, x, p_d, p_c[:-1], source)
    # a 1-d source would broadcast against the 4 features, a 5-d one fail unnamed
    for dim in (1, 5):
        wrong = BatchStats(np.zeros(dim), np.ones(dim))
        yield f"source dim {dim}", "source statistics", (model, x, p_d, p_c, wrong)


@pytest.mark.parametrize("case, name, args", list(bad_inputs()), ids=[c for c, *_ in bad_inputs()])
def test_bad_objective_inputs_fail_by_name_before_any_step(monkeypatch, case, name, args):
    steps = count_calls(monkeypatch, "adamw_step")
    with pytest.raises(ValueError, match=name):
        optimize_prompts(*args, Hyperparams(k_steps=3))
    assert steps == []
    for fn in (grad, loss):
        with pytest.raises(ValueError, match=name):
            fn(*args, 1.0, 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_descent_on_additive_shift_is_monotone_to_the_floor(seed):
    # small-lr descent on a pure shift decreases strictly until the loss is
    # tiny; AdamW then oscillates at the floor, so monotonicity is asserted
    # down to 5% of the initial value and depth down to 1%
    rng = SeededRng(seed)
    model, x, _, _, _ = make_setup(seed=seed, b=12)
    z = x @ model.extractor.T
    source = BatchStats(z.mean(axis=0), np.sqrt(((z - z.mean(axis=0)) ** 2).mean(axis=0)))
    delta = rng.normal(size=model.input_dim, scale=2.0)
    shifted = x + delta
    p_d = np.zeros(model.input_dim)
    p_c = np.zeros_like(x)
    state = AdamWState.fresh(p_d.shape, lr=0.01)
    initial = loss(model, shifted, p_d, p_c, source, 0.0, 1.0).total
    prev = initial
    best = initial
    for _ in range(3000):
        g_d, _ = grad(model, shifted, p_d, p_c, source, 0.0, 1.0)
        if np.linalg.norm(g_d) < 1e-8:
            break
        p_d = adamw_step(state, p_d, g_d)
        cur = loss(model, shifted, p_d, p_c, source, 0.0, 1.0).total
        if prev > 0.05 * initial:
            assert cur < prev
        best = min(best, cur)
        prev = cur
    assert best < 0.01 * initial
    assert np.linalg.norm(p_d + delta) < 0.1 * np.linalg.norm(delta)


@pytest.mark.parametrize("seed", range(5))
def test_loss_terms_respect_their_bounds(seed):
    model, x, p_d, p_c, source = make_setup(seed=seed + 70)
    out = loss(model, x, p_d, p_c, source, 3.0, 1.0)
    assert out.loss_d >= 0.0
    assert -1e-12 <= out.loss_c <= math.log(model.num_classes) + 1e-12
    assert out.total == out.loss_d + 3.0 * out.loss_c


def test_source_stats_validation():
    with pytest.raises(ValueError):
        BatchStats(np.zeros(3), np.array([-1.0, 0.0, 0.0]))
