"""Combined adaptation objective, its closed-form gradients, and AdamW.

The objective is a batch-level alignment term (distance between source and
prompted feature statistics) plus a weighted instance-level entropy term.
Gradients with respect to both prompt kinds are exact chain-rule expressions;
a central finite-difference oracle is provided for checking them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ToyModel, check_prompted, head_logits, prompted_features
from .numerics import BatchStats, Hyperparams, Matrix, Vector, all_finite, as_array, check_stats
from .numerics import moments


@dataclass(frozen=True)
class LossBreakdown:
    """Alignment term, entropy term, and the exact total."""

    loss_d: float
    loss_c: float
    total: float


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
FD_STEP = 1e-5  # finite_diff_grad's central-difference step


@dataclass
class AdamWState:
    """Moment buffers, step count and learning rate for one prompt (vector or stacked matrix)."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float

    @classmethod
    def fresh(cls, shape, lr: float) -> "AdamWState":
        return cls(np.zeros(shape), np.zeros(shape), 0, lr)


def adamw_step(state: AdamWState, prompt: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One AdamW update with bias correction and no weight decay."""
    if prompt.shape != state.m.shape or grad.shape != state.m.shape:
        raise ValueError("prompt/grad shape must match the optimizer state")
    if not all_finite(grad):
        raise ValueError("non-finite gradient rejected")
    state.step += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.step)
    v_hat = state.v / (1.0 - BETA2 ** state.step)
    return prompt - state.lr * (m_hat / (np.sqrt(v_hat) + EPS))


def _check_inputs(model: ToyModel, batch, p_d, class_prompts, source: BatchStats):
    # The objective's one entry check: optimize_prompts makes it once per
    # batch, grad and loss once per call; the internals below trust its output.
    x, p_d, p_c = check_prompted(model, batch, p_d, class_prompts, min_rows=2)
    check_stats(source, model.feature_dim, "source statistics")
    return x, p_d, p_c


def _forward_state(model: ToyModel, x: Matrix, p_d: Vector, p_c: Matrix):
    # x, p_d and p_c come from _check_inputs, so nothing is coerced here.
    z = prompted_features(model, x, p_d, p_c)
    logits = head_logits(model, z)
    # a log-softmax, so the entropy reads finite logs (numerics: second forms)
    shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
    probs = np.exp(logp)
    return z, probs, logp, -np.add.reduce(probs * logp, 1)


def _stats_terms(z: Matrix, source: BatchStats, alpha_std: float):
    # sqrt(v . v) is norm's arithmetic, bit for bit (tests/test_bitfacts.py,
    # fact 7), without its Python-level wrapper.
    mu, centered, sigma = moments(z)
    dmu = mu - source.mu
    dsg = sigma - source.sigma
    norm_mu = math.sqrt(dmu.dot(dmu))
    norm_sg = math.sqrt(dsg.dot(dsg))
    loss_d = norm_mu + alpha_std * norm_sg
    return sigma, centered, dmu, dsg, norm_mu, norm_sg, loss_d


def _loss(model, x, p_d, p_c, source, a, alpha_std) -> LossBreakdown:
    z, _, _, ent = _forward_state(model, x, p_d, p_c)
    *_, loss_d = _stats_terms(z, source, alpha_std)
    loss_c = float(ent.sum() / ent.shape[0])  # ent.mean(), bit for bit (test_bitfacts.py, fact 6)
    return LossBreakdown(loss_d, loss_c, loss_d + a * loss_c)


def _grad(model, x, p_d, p_c, source, a, alpha_std) -> tuple[Vector, Matrix]:
    z, probs, logp, ent = _forward_state(model, x, p_d, p_c)
    b = x.shape[0]
    sigma, centered, dmu, dsg, norm_mu, norm_sg, _ = _stats_terms(z, source, alpha_std)

    dz = np.zeros(z.shape)
    if norm_mu != 0.0:
        dz += dmu / (norm_mu * b)
    if norm_sg != 0.0:
        scale = np.divide(dsg, sigma, out=np.zeros(sigma.shape), where=sigma > 0.0)
        dz += (alpha_std / (norm_sg * b)) * scale * centered

    g_logits = -probs * (logp + ent[:, None])
    dz += (a / b) * (g_logits @ model.head_weight)

    g_class = dz @ model.extractor
    g_domain = np.add.reduce(g_class, 0)
    return g_domain, g_class


def loss(
    model: ToyModel,
    batch,
    p_d,
    class_prompts,
    source_stats: BatchStats,
    a: float,
    alpha_std: float,
) -> LossBreakdown:
    """Alignment-plus-entropy objective over one prompted batch.

    ``loss_d`` is the Euclidean distance between source and prompted feature
    means plus ``alpha_std`` times the distance between standard deviations;
    ``loss_c`` is the mean prediction entropy; ``total = loss_d + a * loss_c``.
    Every call checks its inputs (at least two rows, prompt shapes, source
    statistics of the feature dimension), then runs the same internals as
    :func:`optimize_prompts`.
    """
    x, p_d, p_c = _check_inputs(model, batch, p_d, class_prompts, source_stats)
    return _loss(model, x, p_d, p_c, source_stats, a, alpha_std)


def grad(
    model: ToyModel,
    batch,
    p_d,
    class_prompts,
    source_stats: BatchStats,
    a: float,
    alpha_std: float,
) -> tuple[Vector, Matrix]:
    """Exact gradients of the total loss w.r.t. the domain prompt and each class prompt.

    Returns ``(g_domain, g_class)`` with ``g_class`` holding one row per
    sample. At a vanishing norm term (prompted stats exactly matching source)
    the zero subgradient is used, which keeps the zero-loss point stationary.
    Every call checks its inputs as :func:`loss` does, then runs the same
    internals as :func:`optimize_prompts`.
    """
    x, p_d, p_c = _check_inputs(model, batch, p_d, class_prompts, source_stats)
    return _grad(model, x, p_d, p_c, source_stats, a, alpha_std)


def finite_diff_grad(
    model: ToyModel,
    batch,
    p_d,
    class_prompts,
    source_stats: BatchStats,
    a: float,
    alpha_std: float,
) -> tuple[Vector, Matrix]:
    """Central-difference gradients of the total loss; the checking oracle.

    Only calls :func:`loss`, never the analytic gradient path.
    """
    p_d = as_array(p_d, (None,), "domain prompt").copy()
    p_c = as_array(class_prompts, (None, None), "class prompts").copy()

    def total(pd, pc):
        return loss(model, batch, pd, pc, source_stats, a, alpha_std).total

    g_domain, g_class = np.zeros_like(p_d), np.zeros_like(p_c)
    for p, g in ((p_d, g_domain), (p_c, g_class)):
        for k in np.ndindex(p.shape):
            orig = p[k]
            p[k] = orig + FD_STEP
            hi = total(p_d, p_c)
            p[k] = orig - FD_STEP
            lo = total(p_d, p_c)
            p[k] = orig
            g[k] = (hi - lo) / (2.0 * FD_STEP)
    return g_domain, g_class


def optimize_prompts(
    model: ToyModel,
    batch,
    domain_prompt,
    class_prompts,
    source_stats: BatchStats,
    hp: Hyperparams,
) -> tuple[Vector, Matrix, LossBreakdown]:
    """Run ``hp.k_steps`` AdamW updates on the composed prompts for one batch.

    Optimizer state is fresh per batch (composed prompts differ each batch,
    so carrying moments across batches would be ill-defined). Returns the
    learned prompts and the loss at them; pools are untouched.

    The inputs are checked once, on entry, as :func:`grad` and :func:`loss`
    check theirs; the k gradient steps and the final loss then run unchecked
    on the coerced arrays. ``adamw_step`` still checks each gradient's shape
    and finiteness.
    """
    x, p_d, p_c = _check_inputs(model, batch, domain_prompt, class_prompts, source_stats)
    p_d, p_c = p_d.copy(), p_c.copy()
    d_state = AdamWState.fresh(p_d.shape, hp.lr_domain)
    c_state = AdamWState.fresh(p_c.shape, hp.lr_class)
    for _ in range(hp.k_steps):
        g_d, g_c = _grad(model, x, p_d, p_c, source_stats, hp.a, hp.alpha_std)
        p_d = adamw_step(d_state, p_d, g_d)
        p_c = adamw_step(c_state, p_c, g_c)
    return p_d, p_c, _loss(model, x, p_d, p_c, source_stats, hp.a, hp.alpha_std)
