"""Frozen linear source model with additive input-space prompts.

The source model is a fixed feature extractor followed by a softmax head.
Adaptation never touches its weights; all test-time capacity lives in the
prompt vectors added to the inputs before extraction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numerics import BatchStats, Matrix, SeededRng, Vector, all_finite, as_array, batch_stats
from .numerics import check_keys, check_param, softmax_rows


@dataclass(frozen=True)
class ToyModel:
    """Linear extractor plus softmax head; immutable once constructed."""

    extractor: Matrix      # (feature_dim, input_dim)
    head_weight: Matrix    # (num_classes, feature_dim)
    head_bias: Vector      # (num_classes,)

    def __post_init__(self):
        a = as_array(self.extractor, (None, None), "extractor")
        w = as_array(self.head_weight, (None, a.shape[0]), "head_weight")
        c = as_array(self.head_bias, w.shape[:1], "head_bias")
        for key, arr in (("extractor", a), ("head_weight", w), ("head_bias", c)):
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @property
    def input_dim(self) -> int:
        return self.extractor.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.extractor.shape[0]

    @property
    def num_classes(self) -> int:
        return self.head_weight.shape[0]

    def weight_bytes(self) -> bytes:
        """Byte image of all weights, for frozen-model assertions."""
        return (
            self.extractor.tobytes()
            + self.head_weight.tobytes()
            + self.head_bias.tobytes()
        )


def head_logits(model: ToyModel, features: Matrix) -> Matrix:
    """Logits of the frozen head on a batch of extracted features."""
    return features @ model.head_weight.T + model.head_bias


def check_prompted(model: ToyModel, batch, domain_prompt, class_prompts, *, min_rows: int = 1):
    """Coerce a batch and its prompts: (b, d) samples with at least ``min_rows``
    rows, one d-vector domain prompt and one d-row class prompt per sample."""
    d = model.input_dim
    x = as_array(batch, (None, d), "batch", min_rows)
    p_d = as_array(domain_prompt, (d,), "domain prompt")
    return x, p_d, as_array(class_prompts, (x.shape[0], d), "class prompts")


def prompted_features(model: ToyModel, x: Matrix, p_d: Vector, p_c: Matrix) -> Matrix:
    """Features of the prompted inputs, as both the forward pass and the loss see them."""
    return (x + p_d + p_c) @ model.extractor.T


def forward(model: ToyModel, batch, domain_prompt, class_prompts) -> tuple[Matrix, Matrix]:
    """Prompted forward pass.

    Adds the shared domain prompt and one class prompt per sample to the
    inputs, then extracts features and predicts. Returns ``(features, probs)``
    as (b, feature_dim) and (b, num_classes) arrays; the features are the ones
    the alignment loss statistics are computed from.
    """
    z = prompted_features(model, *check_prompted(model, batch, domain_prompt, class_prompts))
    return z, softmax_rows(head_logits(model, z))


def pseudo_labels(model: ToyModel, batch) -> Matrix:
    """Prompt-free predictions, one probability row per sample.

    A finite batch whose features or logits exceed float64 is rejected by
    name. Any non-finite feature makes every probability of its row
    non-finite, so ``key_stats``' product of a batch that passed is finite.
    """
    x = as_array(batch, (None, model.input_dim), "batch", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = softmax_rows(head_logits(model, x @ model.extractor.T))
    if not all_finite(probs):
        raise ValueError("feature batch overflowed float64 in its prompt-free predictions")
    return probs


def key_stats(model: ToyModel, batch) -> BatchStats:
    """Batch statistics of prompt-free features, used as the domain matching key.

    Deliberately independent of any prompt so matching can precede prompt
    composition.
    """
    x = as_array(batch, (None, model.input_dim), "batch", 2)
    return batch_stats(x @ model.extractor.T)


def make_class_means(num_classes: int, input_dim: int, rng: SeededRng) -> Matrix:
    """Random unit-scale per-class mean vectors, rows indexed by class id."""
    check_param("num_classes", num_classes)
    check_param("input_dim", input_dim)
    return rng.normal(size=(num_classes, input_dim))


def draw_labeled_samples(
    class_means: Matrix, n: int, noise_std: float, rng: SeededRng
) -> tuple[Matrix, np.ndarray]:
    """Balanced labeled draw around the class means: source samples and stream batches."""
    means = as_array(class_means, (None, None), "class_means")
    num_classes = means.shape[0]
    labels = np.array([k % num_classes for k in range(n)], dtype=np.int64)
    labels = rng.permutation(labels)
    x = means[labels]
    if noise_std > 0:
        x = x + rng.normal(size=(n, means.shape[1]), scale=noise_std)
    return x, labels


def fit_head(
    features: Matrix,
    labels: np.ndarray,
    num_classes: int,
) -> tuple[Matrix, Vector]:
    """Multinomial logistic regression by full-batch gradient descent.

    Unit step size, at most 600 iterations. A small L2 term (1e-2) keeps the
    optimum finite when the classes are separable; iteration stops once the
    gradient infinity-norm drops below 1e-6.
    """
    z = as_array(features, (None, None), "features")
    y = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((num_classes, z.shape[1]))
    c = np.zeros(num_classes)
    for _ in range(600):
        probs = softmax_rows(z @ w.T + c)
        delta = (probs - onehot) / n
        gw = delta.T @ z + 1e-2 * w
        gc = delta.sum(axis=0)
        if max(np.abs(gw).max(), np.abs(gc).max()) < 1e-6:
            break
        w -= gw
        c -= gc
    return w, c


def fit_source_model(
    feature_dim: int, class_means: Matrix, noise_std: float, rng: SeededRng
) -> ToyModel:
    """Draw the extractor and fit the head on 400 synthetic labeled source samples.

    The extractor is a seeded Gaussian over the class means' width, scaled
    by 1/sqrt(width); the head is fit on extracted features so the frozen
    model is a genuine source classifier rather than a random map.
    """
    input_dim = class_means.shape[1]
    extractor = rng.child(0).normal(size=(feature_dim, input_dim)) / np.sqrt(input_dim)
    x, y = draw_labeled_samples(class_means, 400, noise_std, rng.child(1))
    w, c = fit_head(x @ extractor.T, y, class_means.shape[0])
    return ToyModel(extractor, w, c)


_MODEL_KEYS = ("input_dim", "feature_dim", "num_classes", "seed", "extractor", "head_weight", "head_bias")


def save_model(model: ToyModel, path, *, seed: int) -> None:
    """Write a JSON snapshot (dims, weights, the world's seed); exact float round-trip."""
    doc = {
        "input_dim": model.input_dim,
        "feature_dim": model.feature_dim,
        "num_classes": model.num_classes,
        "seed": seed,
        "extractor": model.extractor.tolist(),
        "head_weight": model.head_weight.tolist(),
        "head_bias": model.head_bias.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ToyModel:
    """Read a ``save_model`` snapshot. A missing or unknown key, a dimension
    that is not a positive int and a seed that is not an int of at least 0
    fail by name."""
    with open(path, encoding="utf-8") as fh:
        doc = check_keys(json.load(fh), "model", _MODEL_KEYS, _MODEL_KEYS)
    check_param("seed", doc["seed"])
    d, f, c = (check_param(key, doc[key]) for key in ("input_dim", "feature_dim", "num_classes"))
    return ToyModel(
        as_array(doc["extractor"], (f, d), "extractor"),
        as_array(doc["head_weight"], (c, f), "head_weight"),
        as_array(doc["head_bias"], (c,), "head_bias"),
    )
