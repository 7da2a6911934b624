import math

import numpy as np
import pytest

from diamrisk.data import Dataset
from diamrisk.losses import (
    QuadraticLoss,
    TentLoss,
    gradient_check,
    quadratic_eval,
    reciprocal_eval,
    rho_m,
)
from diamrisk.params import ParamVector

KAPPA = 2.0
GAMMA_LOSS = 0.5


def tent_eval(w, z):
    return float(TentLoss(KAPPA, GAMMA_LOSS).eval_scalar(w, z))


def tent_oracle(w, z, kappa, gamma_loss):
    # Table-driven re-evaluation of the piecewise definition, one row per branch.
    rows = [
        (lambda w: -gamma_loss <= w < 0, 0, lambda w: kappa * w / gamma_loss + kappa),
        (lambda w: -gamma_loss <= w < 0, 1, lambda w: -kappa * w / gamma_loss - kappa),
        (lambda w: 0 <= w < gamma_loss, 0, lambda w: -kappa * w / gamma_loss + kappa),
        (lambda w: 0 <= w < gamma_loss, 1, lambda w: kappa * w / gamma_loss - kappa),
    ]
    for in_range, z_row, formula in rows:
        if in_range(w) and z == z_row:
            return formula(w)
    return 0.0


def test_tent_eval_at_zero():
    assert tent_eval(0.0, 0) == KAPPA


def test_tent_eval_vanishes_outside_support():
    for z in (0, 1):
        assert tent_eval(GAMMA_LOSS, z) == 0.0
        assert tent_eval(-GAMMA_LOSS - 0.1, z) == 0.0
        assert tent_eval(3.0, z) == 0.0


def test_tent_eval_negative_midpoint():
    assert tent_eval(-GAMMA_LOSS / 2, 1) == -KAPPA / 2


def test_tent_eval_matches_table_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        w = rng.uniform(-1.5, 1.5)
        z = int(rng.integers(0, 2))
        assert tent_eval(w, z) == pytest.approx(
            tent_oracle(w, z, KAPPA, GAMMA_LOSS), abs=1e-15
        )


def test_tent_true_risk_is_zero_everywhere():
    curve = TentLoss(KAPPA, GAMMA_LOSS).true_risk_curve(np.array([0.0, -0.3, 10.0]))
    assert curve.tolist() == [0.0, 0.0, 0.0]


def test_tent_parameter_validation():
    with pytest.raises(ValueError):
        TentLoss(kappa=1.0)
    with pytest.raises(ValueError):
        TentLoss(gamma_loss=1.0)
    with pytest.raises(ValueError):
        TentLoss(gamma_loss=0.0)


def test_reciprocal_eval_branches():
    assert reciprocal_eval(1.0, 0) == 1.0
    assert reciprocal_eval(-2.0, 0) == 0.0
    assert reciprocal_eval(-2.0, 1) == 0.0
    assert reciprocal_eval(2.0, 1) == -0.5
    assert reciprocal_eval(0.0, 0) == 0.0


def test_rho_m_counts():
    assert rho_m([0, 0, 1]) == 1
    assert rho_m([]) == 0
    assert rho_m([1, 1]) == -2
    with pytest.raises(ValueError):
        rho_m([0, 2])


def test_tent_empirical_risk_closed_form():
    # (rho_m / m) * (-kappa*|w|/gamma_loss + kappa) inside the support, else 0,
    # against the plain sample mean of pointwise evaluations.
    rng = np.random.default_rng(1)
    model = TentLoss(KAPPA, GAMMA_LOSS)
    for _ in range(100):
        m = int(rng.integers(1, 50))
        labels = rng.integers(0, 2, size=m)
        w = rng.uniform(-1.2, 1.2)
        mean = sum(tent_eval(w, int(z)) for z in labels) / m
        rho = rho_m(labels.tolist())
        if -GAMMA_LOSS <= w < GAMMA_LOSS:
            closed = (rho / m) * (-KAPPA * abs(w) / GAMMA_LOSS + KAPPA)
        else:
            closed = 0.0
        assert mean == pytest.approx(closed, abs=1e-12)
        assert float(model.eval_scalar(w, 0) * (m + rho) / 2 + model.eval_scalar(w, 1) * (m - rho) / 2) / m == pytest.approx(closed, abs=1e-12)


def test_reciprocal_empirical_risk_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 50))
        labels = rng.integers(0, 2, size=m)
        w = rng.uniform(0.05, 3.0)
        mean = sum(reciprocal_eval(w, int(z)) for z in labels) / m
        assert mean == pytest.approx(rho_m(labels.tolist()) / m / w, abs=1e-12)


def test_quadratic_eval_examples():
    w = ParamVector([("w", np.array([1.0, 1.0]))])
    perfect = Dataset(X=[[2.0, 3.0]], y=[0], t=[5.0])
    assert quadratic_eval(w, perfect).tolist() == [0.0]

    w0 = ParamVector([("w", np.array([0.0, 0.0]))])
    assert quadratic_eval(w0, Dataset(X=[[1.0, 1.0]], y=[0], t=[2.0])).tolist() == [2.0]

    # 0.5 * (1*1 + 2*1 - 0)^2 = 4.5, one value per row.
    both = Dataset(X=[[1.0, 2.0], [2.0, 3.0]], y=[0, 0], t=[0.0, 5.0])
    assert quadratic_eval(w, both).tolist() == [4.5, 0.0]


def test_quadratic_eval_dimension_mismatch():
    w = ParamVector([("w", np.array([1.0, 1.0]))])
    with pytest.raises(ValueError):
        quadratic_eval(w, Dataset(X=[[1.0]], y=[0]))


def test_quadratic_is_nonnegative_and_convex_in_w():
    rng = np.random.default_rng(3)
    model = QuadraticLoss(dim=3)
    for _ in range(200):
        a = rng.standard_normal(3)
        b = float(rng.standard_normal())
        z = Dataset(X=[a], y=[0], t=[b])
        w1 = ParamVector([("w", rng.standard_normal(3))])
        w2 = ParamVector([("w", rng.standard_normal(3))])
        mid = ParamVector([("w", (w1.flat() + w2.flat()) / 2)])
        assert model.batch_risk(w1, z) >= 0.0
        assert model.batch_risk(mid, z) <= (
            0.5 * model.batch_risk(w1, z) + 0.5 * model.batch_risk(w2, z) + 1e-12
        )


def test_gradients_match_finite_differences():
    # 20 random (w, row) probes of the quadratic; the 1-D losses have no gradient.
    rng = np.random.default_rng(4)
    step = 1e-6
    quad = QuadraticLoss(dim=4)
    pairs = [
        (
            ParamVector([("w", rng.standard_normal(4))]),
            Dataset(X=[rng.standard_normal(4)], y=[0], t=[float(rng.standard_normal())]),
        )
        for _ in range(20)
    ]
    assert gradient_check(quad, pairs, step=step) <= 1e-5


def test_scalar_model_sampling_is_balanced_bernoulli():
    rng = np.random.default_rng(5)
    labels = TentLoss().sample_labels(rng, 10000)
    assert set(np.unique(labels)) <= {0, 1}
    assert abs(labels.mean() - 0.5) < 0.02


def test_batch_grad_duplication_invariance():
    quad = QuadraticLoss(dim=2)
    w = ParamVector([("w", np.array([0.3, -0.7]))])
    z = Dataset(X=[[1.0, 2.0]], y=[0], t=[0.5])
    loss1, grad1 = quad.batch_grad(w, z)
    loss4, grad4 = quad.batch_grad(w, z[[0, 0, 0, 0]])
    assert loss4 == loss1
    assert grad4 == grad1
