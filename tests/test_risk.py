import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamrisk.data import Dataset
from diamrisk.losses import (
    LossModel,
    QuadraticLoss,
    ReciprocalLoss,
    TentLoss,
)
from diamrisk.params import NormKind, ParamVector
from diamrisk.risk import (
    diametrical_risk_grid_1d,
    diametrical_risk_sampled,
    empirical_risk,
    empirical_risk_curve,
)

KAPPA = 2.0
GAMMA_LOSS = 0.5


def quad_rows(rng, m, draw=lambda rng: rng.uniform(0.5, 2.0)):
    """m one-feature regression rows, each feature drawn before its target."""
    rows = [(draw(rng), float(rng.standard_normal())) for _ in range(m)]
    return Dataset(X=[[a] for a, _ in rows], y=[0] * m, t=[b for _, b in rows])


class ConstantLoss(LossModel):
    """Loss that ignores both parameters and data."""

    def __init__(self, c=3.25):
        self.c = c
        self.param_template = ParamVector([("w", np.zeros(2))])

    def batch_risk(self, w, S):
        return self.c

    def batch_grad(self, w, S):
        return self.c, ParamVector.zeros_like(self.param_template)


def test_empirical_risk_single_sample():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    z = Dataset.from_labels([0])
    assert empirical_risk(tent, tent.wrap(0.1), z) == float(tent.eval_scalar(0.1, 0))


def test_empirical_risk_balanced_tent_is_zero():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels([0, 0, 1, 1])  # rho_m = 0 kills the closed form
    for w in (-0.4, 0.0, 0.2, 0.7):
        assert empirical_risk(tent, tent.wrap(w), S) == pytest.approx(0.0, abs=1e-15)


def test_empirical_risk_tent_brute_force():
    tent = TentLoss(kappa=2.0, gamma_loss=0.5)
    S = Dataset.from_labels([0, 0, 0, 1])  # rho_m = 2
    # Brute-force sum over the four samples at w = 0: (2 + 2 + 2 - 2) / 4 = 1.
    assert empirical_risk(tent, tent.wrap(0.0), S) == pytest.approx(1.0, abs=1e-15)


def test_empirical_risk_empty_errors():
    tent = TentLoss()
    with pytest.raises(ValueError):
        empirical_risk(tent, tent.wrap(0.0), Dataset.from_labels([]))


def test_empirical_risk_curve_matches_pointwise():
    rng = np.random.default_rng(0)
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    recip = ReciprocalLoss()
    quad = QuadraticLoss(dim=1)
    labels = rng.integers(0, 2, size=25).tolist()
    S = Dataset.from_labels(labels)
    quad_S = quad_rows(rng, 7, draw=lambda rng: rng.standard_normal(1)[0])
    pts = rng.uniform(-2, 2, size=40)
    for model, data in ((tent, S), (recip, S), (quad, quad_S)):
        curve = empirical_risk_curve(model, pts, data)
        for x, v in zip(pts, curve):
            wrapped = model.wrap(float(x))
            assert v == pytest.approx(empirical_risk(model, wrapped, data), abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from([TentLoss(KAPPA, GAMMA_LOSS), ReciprocalLoss()]),
    x=st.one_of(
        st.sampled_from([-GAMMA_LOSS, 0.0, GAMMA_LOSS]),
        st.floats(-3.0, 3.0).filter(lambda v: v == 0 or abs(v) >= 1e-9),
    ),
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=60),
)
def test_batch_risk_is_the_risk_curve_at_one_point(model, x, labels):
    S = Dataset.from_labels(labels)
    risk = np.float64(model.batch_risk(model.wrap(x), S))
    assert risk.tobytes() == empirical_risk_curve(model, [x], S)[0].tobytes()


def test_true_risk_analytic_values():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    recip = ReciprocalLoss()
    points = np.array([[-1.0, 0.0], [0.3, 5.0]])
    for model in (tent, recip):
        curve = model.true_risk_curve(points)
        assert curve.shape == points.shape and not curve.any()


def test_grid_1d_gamma_zero_equals_empirical_exactly():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels([0, 0, 1])
    est = diametrical_risk_grid_1d(tent, 0.1, 0.0, S)
    assert est == empirical_risk(tent, tent.wrap(0.1), S)


def test_grid_1d_tent_negative_rho_sup_is_zero():
    # rho_m = -2 pushes the tent underwater everywhere; with gamma equal to
    # the loss half-width the neighborhood always reaches a zero of the loss.
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels([0, 1, 1, 1])
    est = diametrical_risk_grid_1d(tent, 0.0, GAMMA_LOSS, S, grid_points=100001)
    assert est == pytest.approx(0.0, abs=1e-15)


def test_grid_1d_dominates_empirical():
    rng = np.random.default_rng(1)
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels(rng.integers(0, 2, size=30).tolist())
    for _ in range(50):
        w = rng.uniform(-1.5, 1.5)
        gamma = rng.uniform(0.01, 1.0)
        est = diametrical_risk_grid_1d(tent, w, gamma, S, grid_points=513)
        assert est >= empirical_risk(tent, tent.wrap(w), S) - 1e-15


def test_grid_1d_monotone_in_gamma_on_exact_fixtures():
    rng = np.random.default_rng(2)
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels(rng.integers(0, 2, size=20).tolist())
    quad = QuadraticLoss(dim=1)
    quad_S = quad_rows(rng, 5)
    for _ in range(100):
        w = rng.uniform(-1.0, 1.0)
        g1, g2 = sorted(rng.uniform(0.01, 1.0, size=2))
        for model, data in ((tent, S), (quad, quad_S)):
            v1 = diametrical_risk_grid_1d(model, w, g1, data, grid_points=257)
            v2 = diametrical_risk_grid_1d(model, w, g2, data, grid_points=257)
            assert v1 <= v2 + 1e-12


def test_sampled_constant_loss_returns_constant():
    model = ConstantLoss(c=3.25)
    w = ParamVector([("w", np.array([1.0, -1.0]))])
    S = Dataset.from_labels([0, 1, 0])
    for r in (1, 5, 50):
        est = diametrical_risk_sampled(model, w, 0.7, NormKind.EUCLIDEAN, r, S, rng=0)
        assert est == 3.25


def test_sampled_nested_draws_monotone_in_r():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels([0, 0, 1])
    w = tent.wrap(0.2)
    values = [
        diametrical_risk_sampled(tent, w, 0.3, NormKind.EUCLIDEAN, r, S, rng=42)
        for r in (1, 4, 16, 64)
    ]
    for smaller, larger in zip(values, values[1:]):
        assert smaller <= larger + 1e-15


def test_sampled_quadratic_converges_to_exact_sup():
    # 1-D sphere sampling lands on +-1 so a single draw already achieves the
    # exact supremum 0.5 * gamma^2 of the single-sample quadratic at w = 0.
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0])
    w = quad.wrap(0.0)
    exact = diametrical_risk_grid_1d(quad, 0.0, 1.0, S, grid_points=4097)
    assert exact == pytest.approx(0.5, abs=1e-12)
    for r in (1, 10, 100):
        est = diametrical_risk_sampled(quad, w, 1.0, NormKind.EUCLIDEAN, r, S, rng=7)
        assert est <= exact + 1e-12
        assert est == pytest.approx(0.5, rel=1e-9)


def test_sampled_never_exceeds_grid_on_1d_fixtures():
    rng = np.random.default_rng(3)
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    recip = ReciprocalLoss()
    quad = QuadraticLoss(dim=1)
    S = Dataset.from_labels(rng.integers(0, 2, size=20).tolist())
    quad_S = quad_rows(rng, 5)
    cases = [
        (tent, S, (-1.0, 1.0), (0.05, 0.8)),
        (recip, S, (0.9, 2.0), (0.05, 0.7)),  # keep the interval off the pole
        (quad, quad_S, (-1.0, 1.0), (0.05, 0.8)),
    ]
    for model, data, w_range, g_range in cases:
        for trial in range(30):
            w = rng.uniform(*w_range)
            gamma = rng.uniform(*g_range)
            grid = diametrical_risk_grid_1d(model, w, gamma, data, grid_points=513)
            sampled = diametrical_risk_sampled(
                model, model.wrap(w), gamma, NormKind.EUCLIDEAN, 10, data, rng=trial
            )
            assert sampled <= grid + 1e-12


def test_sampled_gamma_zero_equals_empirical():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    S = Dataset.from_labels([0, 0, 0, 1])
    w = tent.wrap(0.0)
    est = diametrical_risk_sampled(tent, w, 0.0, NormKind.EUCLIDEAN, 5, S, rng=0)
    assert est == empirical_risk(tent, w, S)


def test_reciprocal_erm_unbounded_but_neighborhood_sup_bounded():
    # With more ones than zeros the empirical risk dives to -inf near 0+,
    # following the closed form (rho_m/m)/w; the neighborhood sup over
    # w in [0, B] stays bounded below.
    recip = ReciprocalLoss()
    S = Dataset.from_labels([0, 1, 1, 1])  # rho_m = -2, m = 4
    rho_over_m = -2.0 / 4.0
    for k in range(1, 13):
        w = 10.0 ** (-k)
        value = empirical_risk(recip, recip.wrap(w), S)
        assert value == pytest.approx(rho_over_m / w, rel=1e-12)
        assert value <= -(10.0**k) * abs(rho_over_m) * (1 - 1e-12)
    sups = [
        diametrical_risk_grid_1d(recip, w, 0.5, S, grid_points=1025)
        for w in np.linspace(0.0, 3.0, 31)
    ]
    assert min(sups) >= -abs(rho_over_m) / 0.5 - 1e-12


def test_convexity_preserved_by_neighborhood_sup():
    # Midpoint convexity of the grid-exact neighborhood sup of a convex
    # quadratic empirical risk, on 1000 random pairs.
    rng = np.random.default_rng(4)
    quad = QuadraticLoss(dim=1)
    S = quad_rows(rng, 6)
    gamma = 0.4
    for _ in range(1000):
        w1, w2 = rng.uniform(-2.0, 2.0, size=2)
        mid = 0.5 * (w1 + w2)
        f1 = diametrical_risk_grid_1d(quad, w1, gamma, S, grid_points=129)
        f2 = diametrical_risk_grid_1d(quad, w2, gamma, S, grid_points=129)
        fm = diametrical_risk_grid_1d(quad, mid, gamma, S, grid_points=129)
        assert fm <= 0.5 * f1 + 0.5 * f2 + 1e-9
