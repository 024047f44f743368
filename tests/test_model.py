import json
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest

from ctta.model import (
    ToyModel,
    draw_labeled_samples,
    fit_source_model,
    forward,
    key_stats,
    load_model,
    make_class_means,
    pseudo_labels,
    save_model,
)
from ctta.numerics import SeededRng
from reference import softmax, two_pass_stats

DEMO = Path(__file__).resolve().parent.parent / "demo"


@pytest.fixture(scope="module")
def world():
    rng = SeededRng(3)
    means = make_class_means(3, 6, rng.child(0))
    model = fit_source_model(5, means, 0.3, rng.child(1))
    return model, means, rng


def test_model_shapes_and_frozen_weights(world):
    model, _, _ = world
    assert model.input_dim == 6 and model.feature_dim == 5 and model.num_classes == 3
    with pytest.raises(ValueError):
        model.extractor[0, 0] = 1.0


@pytest.mark.parametrize("num_classes, input_dim, named", [(0, 6, "num_classes"), (3, 2.5, "input_dim")])
def test_make_class_means_checks_its_dimensions_through_the_table(num_classes, input_dim, named):
    # a fractional dimension used to reach numpy and fail there without a name
    with pytest.raises(ValueError, match=f"^{named} must be Integral in "):
        make_class_means(num_classes, input_dim, SeededRng(0))


def test_model_rejects_inconsistent_dims():
    with pytest.raises(ValueError):
        ToyModel(np.zeros((4, 3)), np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ValueError):
        ToyModel(np.zeros((4, 3)), np.zeros((2, 4)), np.zeros(3))


def test_forward_zero_prompts_equals_pseudo_labels(world):
    model, means, rng = world
    x, _ = draw_labeled_samples(means, 10, 0.3, rng.child(2))
    zeros = np.zeros(model.input_dim)
    _, probs = forward(model, x, zeros, np.zeros_like(x))
    np.testing.assert_array_equal(probs, pseudo_labels(model, x))


def test_forward_exact_shift_cancellation(world):
    model, means, rng = world
    x, _ = draw_labeled_samples(means, 8, 0.3, rng.child(3))
    delta = rng.child(4).normal(size=model.input_dim)
    feats_base, _ = forward(model, x, np.zeros(model.input_dim), np.zeros_like(x))
    feats_shift, _ = forward(model, x + delta, -delta, np.zeros_like(x))
    np.testing.assert_allclose(feats_shift, feats_base, atol=1e-12)


def test_forward_matches_straight_line_oracle(world):
    model, means, rng = world
    r = rng.child(5)
    x, _ = draw_labeled_samples(means, 7, 0.3, r)
    p_d = r.normal(size=model.input_dim)
    p_c = r.normal(size=(7, model.input_dim))
    feats, probs = forward(model, x, p_d, p_c)
    for t in range(7):
        z = model.extractor @ (x[t] + p_d + p_c[t])
        np.testing.assert_allclose(feats[t], z, rtol=1e-12)
        np.testing.assert_allclose(
            probs[t], softmax(model.head_weight @ z + model.head_bias), rtol=1e-12
        )


def test_forward_requires_one_class_prompt_per_sample(world):
    model, means, rng = world
    x, _ = draw_labeled_samples(means, 5, 0.3, rng.child(6))
    with pytest.raises(ValueError):
        forward(model, x, np.zeros(model.input_dim), np.zeros((4, model.input_dim)))


def test_pseudo_labels_identical_samples_identical_rows(world):
    model, _, _ = world
    row = np.linspace(-1, 1, model.input_dim)
    probs = pseudo_labels(model, np.tile(row, (4, 1)))
    for t in range(1, 4):
        np.testing.assert_array_equal(probs[t], probs[0])


def test_key_stats_matches_two_pass_oracle_and_prompt_free(world):
    model, means, rng = world
    x, _ = draw_labeled_samples(means, 12, 0.3, rng.child(7))
    stats = key_stats(model, x)
    mu, sigma = two_pass_stats([model.extractor @ row for row in x])
    np.testing.assert_allclose(stats.mu, mu, rtol=1e-12)
    np.testing.assert_allclose(stats.sigma, sigma, rtol=1e-12)


def test_key_stats_shift_moves_mean_not_sigma(world):
    model, means, rng = world
    x, _ = draw_labeled_samples(means, 16, 0.3, rng.child(8))
    delta = rng.child(9).normal(size=model.input_dim)
    base = key_stats(model, x)
    shifted = key_stats(model, x + delta)
    np.testing.assert_allclose(shifted.mu, base.mu + model.extractor @ delta, atol=1e-10)
    np.testing.assert_allclose(shifted.sigma, base.sigma, atol=1e-10)


def test_key_stats_duplicate_batch_zero_sigma(world):
    model, _, _ = world
    row = np.ones(model.input_dim)
    stats = key_stats(model, np.tile(row, (2, 1)))
    np.testing.assert_array_equal(stats.sigma, np.zeros(model.feature_dim))
    with pytest.raises(ValueError):
        key_stats(model, row[None, :])


def test_source_model_classifies_source_data(world):
    model, means, rng = world
    x, y = draw_labeled_samples(means, 900, 0.3, rng.child(10))
    predicted = pseudo_labels(model, x).argmax(axis=1)
    assert (predicted != y).mean() < 0.12


def test_model_snapshot_round_trip(tmp_path, world):
    model, _, _ = world
    path = tmp_path / "model.json"
    save_model(model, path, seed=3)
    loaded = load_model(path)
    assert loaded.weight_bytes() == model.weight_bytes()


def test_shipped_demo_model_loads():
    model = load_model(DEMO / "model.json")
    assert (model.input_dim, model.feature_dim, model.num_classes) == (8, 8, 3)


def _edit(doc, key, value):
    doc = dict(doc)
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    return doc


# numpy's words for a dict where a number belongs
_NOT_A_DICT = "float() argument must be a string or a real number, not 'dict'"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _edit(d, "head_bias", MISSING), "missing model keys: ['head_bias']"),
        (lambda d: _edit(d, "input_dim", MISSING), "missing model keys: ['input_dim']"),
        (lambda d: _edit(d, "junk", 1), "unknown model keys: ['junk']"),
        (lambda d: _edit(_edit(d, "seed", "abc"), "junk", 1), "unknown model keys: ['junk']"),
        (lambda d: _edit(d, "seed", "abc"), "seed must be Integral in [0, inf], got 'abc'"),
        (lambda d: _edit(d, "seed", 1.5), "seed must be Integral in [0, inf], got 1.5"),
        (lambda d: _edit(d, "seed", True), "seed must be Integral in [0, inf], got True"),
        (lambda d: _edit(d, "seed", None), "seed must be Integral in [0, inf], got None"),
        (lambda d: _edit(d, "feature_dim", "8"), "feature_dim must be Integral in [1, inf], got '8'"),
        (lambda d: _edit(d, "extractor", {}), f"extractor must be an array of numbers: {_NOT_A_DICT}"),
        (lambda d: _edit(d, "head_bias", [{}, 0.0, 0.0]), f"head_bias must be an array of numbers: {_NOT_A_DICT}"),
        (
            lambda d: _edit(d, "head_bias", [10**400, 0.0, 0.0]),
            "head_bias must be an array of numbers: int too large to convert to float",
        ),
        (lambda d: 5, "model must be a JSON object"),
        (lambda d: [d], "model must be a JSON object"),
    ],
    ids=[
        "no-head_bias", "no-input_dim", "unknown", "unknown-and-bad-seed", "seed-str",
        "seed-float", "seed-bool", "seed-null", "dim-str", "dict-matrix", "dict-in-row", "int-past-float64",
        "number", "list",
    ],
)
def test_bad_model_documents_fail_naming_the_key(tmp_path, edit, message):
    # each of these used to raise KeyError or TypeError, or to load; a null
    # seed used to load
    doc = json.loads((DEMO / "model.json").read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(doc)))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == message


def test_weights_unchanged_by_forward_passes(world):
    model, means, rng = world
    before = model.weight_bytes()
    x, _ = draw_labeled_samples(means, 6, 0.3, rng.child(11))
    forward(model, x, np.ones(model.input_dim), np.ones_like(x))
    assert model.weight_bytes() == before
