"""Property tests of the one neighborhood evaluator and the estimators on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamrisk import risk
from diamrisk.data import Dataset
from diamrisk.losses import LossModel, ReciprocalLoss, TentLoss
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params
from diamrisk.optimizer import select_worst
from diamrisk.params import NormKind, ParamVector, axpy, sample_sphere, sphere_rows
from diamrisk.risk import (
    diametrical_risk_grid_1d,
    diametrical_risk_sampled,
    neighborhood_risks,
    score_chunks,
)
from oracles import direction_chunks, zeros_like

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
KINDS = st.sampled_from(list(NormKind))
SEEDS = st.integers(0, 2**32 - 1)
ONE_ROW = Dataset.from_labels([0])


class StepLoss(LossModel):
    """Risk 1 where the first coordinate is positive, else 0: plenty of ties."""

    def __init__(self):
        self.param_template = ParamVector([("w", np.zeros(3))])

    def batch_risk(self, w, S):
        return float(w.flat()[0] > 0.0)


def _first_max(values) -> int:
    best = max(values)
    return next(i for i, v in enumerate(values) if v == best)


@SETTINGS
@given(seed=SEEDS, n=st.integers(0, 6), gamma=st.floats(0.0, 3.0), kind=KINDS)
def test_neighborhood_risks_match_per_direction_evaluation(seed, n, gamma, kind):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    w = init_params(spec, rng)
    rows = [(rng.standard_normal(3), int(rng.integers(0, 3))) for _ in range(5)]
    batch = Dataset(X=[x for x, _ in rows], y=[y for _, y in rows], num_classes=3)
    directions = [sample_sphere(w, gamma, kind, rng) for _ in range(n)]
    values = neighborhood_risks(model, w, [u.flat() for u in directions], batch)
    expected = [model.batch_risk(axpy(w, 1.0, u), batch) for u in directions]
    assert values.dtype == np.float64 and values.shape == (n,)
    assert values.tolist() == expected


@pytest.mark.parametrize("r", [1, 3, 4, 5, 15, 16, 17, 40])
def test_neighborhood_chunks_fill_out_as_one_stack_of_rows_would(r):
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    rng = np.random.default_rng(5)
    centers = [init_params(spec, rng) for _ in range(2)]
    batch = Dataset(X=rng.standard_normal((5, 3)), y=[0, 1, 2, 1, 0], num_classes=3)
    kind = NormKind.LAYERWISE_FROBENIUS
    out = np.full((2, r), np.nan)
    chunks_rng, stack_rng = np.random.default_rng(9), np.random.default_rng(9)
    chunks = score_chunks(model, centers, direction_chunks(centers[0], 0.7, kind, r, chunks_rng), batch, out)
    chunks = [(start, U.copy()) for start, U in chunks]
    U = sphere_rows(centers[0], 0.7, kind, r, stack_rng)
    expected = np.array([neighborhood_risks(model, w, U, batch) for w in centers])
    assert out.tobytes() == expected.tobytes()
    assert [start for start, _ in chunks] == list(range(0, r, risk._CHUNK))
    assert np.concatenate([rows for _, rows in chunks]).tobytes() == U.tobytes()
    assert chunks_rng.bit_generator.state == stack_rng.bit_generator.state


@SETTINGS
@given(seed=SEEDS, picks=st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_select_worst_breaks_ties_to_the_lowest_index(seed, picks):
    model = StepLoss()
    w = zeros_like(model.param_template)
    rng = np.random.default_rng(seed)
    pool = [sample_sphere(w, 1.0, NormKind.EUCLIDEAN, rng) for _ in range(6)]
    candidates = [pool[i].flat() for i in picks]  # repeats force exact ties
    idx, chosen, value = select_worst(model, w, ONE_ROW, candidates)
    values = [model.batch_risk(axpy(w, 1.0, pool[i]), ONE_ROW) for i in picks]
    assert idx == _first_max(values)
    assert chosen is candidates[idx] and value == values[idx]


@SETTINGS
@given(seed=SEEDS, r=st.integers(1, 12), gamma=st.floats(0.01, 2.0), kind=KINDS)
def test_sampled_estimate_breaks_ties_to_the_lowest_draw(seed, r, gamma, kind):
    model = StepLoss()
    w = zeros_like(model.param_template)
    est = diametrical_risk_sampled(model, w, gamma, kind, r, ONE_ROW, rng=seed)
    rng = np.random.default_rng(seed)
    draws = [sample_sphere(w, gamma, kind, rng) for _ in range(r)]
    values = [model.batch_risk(axpy(w, 1.0, u), ONE_ROW) for u in draws]
    assert est == values[_first_max(values)]


@SETTINGS
@given(
    loss=st.sampled_from(["tent", "reciprocal"]),
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=30),
    center=st.floats(0.0, 1.0),
    gamma=st.floats(0.05, 0.7),
    r=st.integers(1, 20),
    seed=SEEDS,
)
def test_sampled_sup_never_exceeds_grid_sup(loss, labels, center, gamma, r, seed):
    if loss == "tent":
        model, w = TentLoss(2.0, 0.5), 2.0 * center - 1.0
    else:
        model, w = ReciprocalLoss(), 0.9 + 1.1 * center  # off the pole: w - gamma > 0
    S = Dataset.from_labels(labels)
    grid = diametrical_risk_grid_1d(model, w, gamma, S, grid_points=257)
    sampled = diametrical_risk_sampled(
        model, model.wrap(w), gamma, NormKind.EUCLIDEAN, r, S, rng=seed
    )
    # A norm-gamma draw may land an ulp outside the interval the grid spans.
    assert sampled <= grid + 1e-12 * max(1.0, abs(grid))


class RecordingTent(TentLoss):
    """Tent loss that records every point its risk curve is evaluated at."""

    def __init__(self, gamma_loss):
        super().__init__(2.0, gamma_loss)
        self.seen = []

    def eval_scalar(self, w, label):
        self.seen.append(np.array(w, dtype=np.float64, copy=True))
        return super().eval_scalar(w, label)


@SETTINGS
@given(
    w=st.floats(-1.5, 1.5),
    gamma=st.floats(0.01, 1.5),
    grid_points=st.integers(3, 65),
    gamma_loss=st.floats(0.05, 0.95),
)
def test_grid_1d_points_are_uniform_points_centre_and_breakpoints(
    w, gamma, grid_points, gamma_loss
):
    model = RecordingTent(gamma_loss)
    diametrical_risk_grid_1d(model, w, gamma, ONE_ROW, grid_points=grid_points)
    lo, hi = w - gamma, w + gamma
    in_range = [b for b in model.breakpoints if lo <= b <= hi]
    expected = np.unique(np.concatenate([np.linspace(lo, hi, grid_points), [w], in_range]))
    (evaluated,) = model.seen  # one label value: one curve evaluation
    assert np.array_equal(evaluated, expected)
