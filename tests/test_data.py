import numpy as np
import pytest

from diamrisk.data import Dataset, class_means, flip_labels, gen_gaussian_blobs
from diamrisk.mlp import MlpSpec, accuracy_on, init_params


def test_blobs_balanced_one_per_class():
    data = gen_gaussian_blobs(num_classes=3, n=3, d=5, separation=2.0, seed=0)
    assert sorted(data.y.tolist()) == [0, 1, 2]


def test_blobs_deterministic():
    a = gen_gaussian_blobs(3, 30, 4, 2.0, seed=5)
    b = gen_gaussian_blobs(3, 30, 4, 2.0, seed=5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_blobs_validation():
    with pytest.raises(ValueError):
        gen_gaussian_blobs(1, 10, 4, 2.0, seed=0)
    with pytest.raises(ValueError):
        gen_gaussian_blobs(3, 10, 2, 2.0, seed=0)  # d < num_classes
    with pytest.raises(ValueError):
        gen_gaussian_blobs(3, 10, 4, 0.0, seed=0)


def test_blobs_large_separation_nearest_mean_is_perfect():
    # Nearest-mean oracle on 1000 fresh points.
    num_classes, d, sep = 3, 6, 50.0
    data = gen_gaussian_blobs(num_classes, 1000, d, sep, seed=1)
    means = class_means(num_classes, d, sep)
    X = data.X
    preds = np.argmin(
        np.linalg.norm(X[:, None, :] - means[None, :, :], axis=2), axis=1
    )
    assert np.mean(preds == data.y) == 1.0


def test_flip_labels_zero_fraction_is_identity():
    data = gen_gaussian_blobs(3, 20, 4, 2.0, seed=2)
    flipped = flip_labels(data, 0.0, np.random.default_rng(0))
    assert np.array_equal(flipped.y, data.y)


def test_flip_labels_full_fraction_two_classes_toggles_all():
    data = gen_gaussian_blobs(2, 40, 3, 2.0, seed=3)
    flipped = flip_labels(data, 1.0, np.random.default_rng(0))
    assert np.array_equal(flipped.y, 1 - data.y)


def test_flip_labels_exact_count_and_inequality():
    data = gen_gaussian_blobs(4, 100, 6, 2.0, seed=4)
    flipped = flip_labels(data, 0.5, np.random.default_rng(1))
    assert int(np.sum(flipped.y != data.y)) == 50
    assert np.all((0 <= flipped.y) & (flipped.y < 4))


def test_flip_labels_noise_fraction_within_one_over_m():
    data = gen_gaussian_blobs(3, 31, 4, 2.0, seed=5)
    for frac in (0.1, 0.33, 0.5, 0.9):
        flipped = flip_labels(data, frac, np.random.default_rng(2))
        assert abs(np.mean(flipped.y != data.y) - frac) <= 1.0 / len(data)


def test_flip_labels_preserves_features_bit_exactly():
    data = gen_gaussian_blobs(3, 25, 4, 2.0, seed=6)
    flipped = flip_labels(data, 0.4, np.random.default_rng(3))
    assert np.array_equal(flipped.X, data.X)


def test_flip_labels_new_label_roughly_uniform_over_others():
    data = gen_gaussian_blobs(4, 4000, 5, 2.0, seed=7)
    flipped = flip_labels(data, 1.0, np.random.default_rng(4))
    counts = np.zeros(4)
    for label, orig in zip(flipped.y, data.y):
        counts[(label - orig) % 4] += 1
    assert counts[0] == 0
    assert counts[1:].min() > 0.25 * counts[1:].max()


def test_accuracy_saturated_and_zero_weight_cases():
    spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=3)
    data = gen_gaussian_blobs(3, 30, 3, 20.0, seed=8)
    # Zero weights: every logit 0, everything predicted as class 0.
    w0 = spec.param_template()
    assert accuracy_on(spec, w0, data) == pytest.approx(np.mean(data.y == 0))
    # Identity-like weights pick out the dominant blob coordinate.
    w = init_params(spec, np.random.default_rng(0))
    strong = spec.param_template()
    strong = type(strong)([("W0", np.eye(3) * 10.0), ("b0", np.zeros(3))])
    assert accuracy_on(spec, strong, data) == 1.0
    with pytest.raises(ValueError):
        accuracy_on(spec, w0, Dataset(X=np.empty((0, 3)), y=[], num_classes=3))


def test_accuracy_diverges_from_original_labels_after_flip():
    spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=3)
    strong = spec.param_template()
    strong = type(strong)([("W0", np.eye(3) * 10.0), ("b0", np.zeros(3))])
    clean = gen_gaussian_blobs(3, 60, 3, 20.0, seed=9)
    noisy = flip_labels(clean, 0.5, np.random.default_rng(5))
    acc_noisy_labels = accuracy_on(spec, strong, noisy)
    acc_original = np.mean(
        np.argmax(noisy.X @ (np.eye(3) * 10.0).T, axis=1)
        == clean.y
    )
    assert acc_original == 1.0
    assert acc_noisy_labels < acc_original
