import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamrisk.analysis import (
    FlatnessReport,
    Histogram,
    _Window,
    confidence_csv,
    confidence_region_check,
    csv_text,
    directions_digest,
    erm_drm_gap_table,
    excess,
    flatness_report,
    hist_csv,
    landscape_histogram,
    rate_csv,
    rate_study,
    sample_directions,
)
from diamrisk.data import Dataset, gen_gaussian_blobs
from diamrisk.losses import LossModel, QuadraticLoss, ReciprocalLoss, TentLoss
from diamrisk.harness import build_datasets, default_experiment_config
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params
from diamrisk.params import NormKind, ParamVector
from diamrisk.risk import diametrical_risk_grid_1d, neighborhood_risks

KAPPA = 2.0
GAMMA_LOSS = 0.5
ONE_ROW = Dataset.from_labels([0])


class ConstantLoss(LossModel):
    def __init__(self, c=2.0):
        self.c = c
        self.param_template = ParamVector([("w", np.zeros(3))])

    def batch_risk(self, w, S):
        return self.c

    def batch_grad(self, w, S):
        return self.c, ParamVector.zeros_like(self.param_template)


def test_excess_of_set_over_itself_is_zero():
    rng = np.random.default_rng(0)
    A = rng.standard_normal(10)
    assert excess(A, A) == 0.0


def test_excess_empty_conventions():
    assert excess([], []) == 0.0
    assert excess([], [0.0]) == 0.0
    assert excess([0.0], []) == float("inf")


def test_excess_brute_force_example():
    # max over a in A of min over b in B: max(|0-3|, |5-3|) = 3.
    assert excess([0.0, 5.0], [3.0]) == 3.0


def _excess_oracle(A, B):
    """Double loop over the two sets, with the empty-set conventions."""
    if not A:
        return 0.0
    if not B:
        return float("inf")
    return max(min(abs(a - b) for b in B) for a in A)


_POINTS = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, -0.0, 1.0, 1e-200, -1e-200, 5e-324, 1e-170]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(A=_POINTS, B=_POINTS)
@example(A=[], B=[])
@example(A=[0.0], B=[])
@example(A=[1.0, 2.0], B=[2.0, 1.0])  # every gap zero
@example(A=[1e-200], B=[0.0, 3e-200])  # the squared gaps underflow to 0
def test_excess_matches_double_loop_oracle(A, B):
    assert excess(A, B) == _excess_oracle(A, B)


def test_excess_triangle_monotonicity():
    # exs(A;B) <= exs(A;C) + exs(C;B) on 500 random finite-set triples.
    rng = np.random.default_rng(2)
    for _ in range(500):
        A = rng.standard_normal(rng.integers(1, 6))
        B = rng.standard_normal(rng.integers(1, 6))
        C = rng.standard_normal(rng.integers(1, 6))
        assert excess(A, B) <= excess(A, C) + excess(C, B) + 1e-12


def test_rate_study_tent_gap_never_positive():
    # With the neighborhood radius at least the loss half-width, the sup-gap
    # is never positive in any trial.
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    result = rate_study(
        tent,
        interval=(-2.0, 2.0),
        gamma=GAMMA_LOSS,
        m_list=[100, 400],
        trials=60,
        alpha=0.05,
        grid_points=129,
        rng=0,
        inner_points=129,
    )
    assert result.all_nonpositive
    assert result.slope is None
    for rec in result.records:
        assert rec.q95 <= 0.0
    # The same trials one by one: no trial's gap is positive.
    for mi, m in enumerate([100, 400]):
        window = _Window(tent, (-2.0, 2.0), GAMMA_LOSS, 129, 129)
        for trial in range(60):
            labels = tent.sample_labels(np.random.default_rng([0, mi, trial]), m)
            assert np.max(window.r_true - window.curves(labels, trial)[1]) <= 0.0


def test_rate_study_reciprocal_quantiles_decrease_like_inverse_sqrt_m():
    recip = ReciprocalLoss()
    result = rate_study(
        recip,
        interval=(0.5, 2.0),
        gamma=0.5,
        m_list=[250, 1000, 4000],
        trials=80,
        alpha=0.05,
        grid_points=129,
        rng=1,
        inner_points=129,
    )
    qs = [rec.q_alpha for rec in result.records]
    assert all(q > 0 for q in qs)
    assert qs[0] > qs[1] > qs[2]
    assert result.slope == pytest.approx(-0.5, abs=0.2)


def test_rate_study_validates_inputs():
    tent = TentLoss()
    with pytest.raises(ValueError):
        rate_study(tent, (-1, 1), 0.5, [100], trials=10, alpha=0.05, grid_points=65, rng=0)
    with pytest.raises(ValueError):
        rate_study(tent, (-1, 1), 0.5, [100, 100], trials=30, alpha=0.05, grid_points=65, rng=0)


STUDIES = {
    "rate": lambda model, interval: rate_study(
        model, interval, 0.5, [50], trials=30, alpha=0.05, grid_points=9, rng=0, inner_points=9
    ),
    "confidence": lambda model, interval: confidence_region_check(
        model, interval, 0.5, 0.1, m=50, trials=3, grid_points=9, rng=0, epsilons=[0.1], inner_points=9
    ),
    "gap_table": lambda model, interval: erm_drm_gap_table(
        model, interval, 0.5, m=50, trials=3, grid_points=9, rng=0, inner_points=9
    ),
}


@pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, -2.0)], ids=["point", "reversed"])
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_studies_reject_an_empty_window(study, interval):
    # Every study checks the window in one place, before any trial: a
    # one-point window has no grid cell, a reversed one no points.
    with pytest.raises(ValueError, match="interval must satisfy lo < hi"):
        STUDIES[study](TentLoss(KAPPA, GAMMA_LOSS), interval)


def test_rate_study_inverse_m_mode_shrinks_gamma():
    recip = ReciprocalLoss()
    result = rate_study(
        recip,
        interval=(0.5, 2.0),
        gamma=0.4,
        m_list=[100, 400],
        trials=30,
        alpha=0.05,
        grid_points=65,
        rng=2,
        inner_points=65,
        gamma_mode="inverse_m",
    )
    assert result.records[0].gamma == pytest.approx(0.4)
    assert result.records[1].gamma == pytest.approx(0.1)


def test_confidence_check_tent_passes_at_zero_epsilon():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    result = confidence_region_check(
        tent,
        interval=(-2.0, 2.0),
        gamma=GAMMA_LOSS,
        delta_level=0.0,
        m=200,
        trials=50,
        grid_points=129,
        rng=3,
        epsilons=[0.0],
        inner_points=129,
    )
    assert result.pass_rates[0] == 1.0
    assert result.empty_level_sets == 0


def test_confidence_check_delta_above_max_risk_trivially_passes():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    result = confidence_region_check(
        tent,
        interval=(-2.0, 2.0),
        gamma=GAMMA_LOSS,
        delta_level=10.0,
        m=100,
        trials=20,
        grid_points=65,
        rng=4,
        epsilons=[0.05],
        inner_points=65,
    )
    assert result.pass_rates[0] == 1.0


def test_confidence_check_gamma_at_least_diameter_trivially_passes():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    result = confidence_region_check(
        tent,
        interval=(-2.0, 2.0),
        gamma=5.0,
        delta_level=0.0,
        m=100,
        trials=20,
        grid_points=65,
        rng=5,
        epsilons=[0.0],
        inner_points=65,
    )
    assert result.pass_rates[0] == 1.0


def test_confidence_check_pass_rate_monotone_in_epsilon():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    result = confidence_region_check(
        tent,
        interval=(-2.0, 2.0),
        gamma=0.3,  # tighter than the loss half-width: nontrivial conditions
        delta_level=0.0,
        m=60,
        trials=40,
        grid_points=65,
        rng=6,
        epsilons=[0.0, 0.01, 0.05, 0.5],
        inner_points=65,
    )
    rates = result.pass_rates
    for a, b in zip(rates, rates[1:]):
        assert a <= b + 1e-12


def test_level_set_nesting_frequency():
    # Wherever the neighborhood sup is at most delta, the true risk should be
    # at most delta + q in at least a (1 - alpha) fraction of trials, with q
    # the empirical (1 - alpha) quantile of the sup-gap.
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    alpha = 0.05
    study = rate_study(
        tent, (-2.0, 2.0), GAMMA_LOSS, [200], trials=60, alpha=alpha,
        grid_points=65, rng=7, inner_points=65,
    )
    q = study.records[0].q_alpha
    delta = 0.1
    window = _Window(tent, (-2.0, 2.0), GAMMA_LOSS, 65, 65)
    hits = 0
    trials = 60
    for trial in range(trials):
        labels = tent.sample_labels(np.random.default_rng([70, trial]), 200)
        inside = window.curves(labels, trial)[1] <= delta
        if np.all(window.r_true[inside] <= delta + q):
            hits += 1
    assert hits / trials >= 1 - alpha


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    loss=st.sampled_from(["tent", "reciprocal"]),
    lo=st.floats(-3.0, 3.0),
    width=st.floats(0.01, 3.0),
    gamma=st.floats(0.01, 2.0),
    n=st.integers(3, 65),
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=40),
)
def test_neighborhood_sup_rows_match_the_grid_oracle(loss, lo, width, gamma, n, labels):
    # The trial curves of rate, confidence and examples against the risk
    # layer, bit for bit: the empirical risk curve, and the grid estimator of
    # the neighbourhood sup at every centre of the window grid.
    model = TentLoss(KAPPA, GAMMA_LOSS) if loss == "tent" else ReciprocalLoss()
    if loss == "reciprocal":  # every neighbourhood off the pole: w - gamma > 0
        lo = gamma + abs(lo) + 0.01
    window = _Window(model, (lo, lo + width), gamma, 9, n)
    r_emp, sup_curve = window.curves(labels, 0)
    S = Dataset.from_labels(labels)
    assert r_emp.tobytes() == model.risk_curve(window.w_grid, S).tobytes()
    for w, value in zip(window.w_grid, sup_curve):
        assert value == diametrical_risk_grid_1d(model, w, gamma, S, grid_points=n)


def test_gap_table_tent_matches_closed_form_bound():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    m = 500
    table = erm_drm_gap_table(
        tent, (-2.0, 2.0), GAMMA_LOSS, m=m, trials=100, grid_points=257, rng=8,
        inner_points=129,
    )
    assert len(table) == 100
    saw_positive = False
    for rec in table:
        bound = max(0, -rec.rho) * KAPPA / m
        assert rec.erm_gap == pytest.approx(bound, abs=1e-12)
        assert rec.drm_gap <= 1e-15
        saw_positive = saw_positive or rec.erm_gap > 0
    assert saw_positive


def test_landscape_histogram_constant_loss():
    model = ConstantLoss(c=2.0)
    w = ParamVector([("w", np.array([0.5, -0.5, 1.0]))])
    hist = landscape_histogram(
        model, w, 1.0, NormKind.EUCLIDEAN, 200, ONE_ROW, rng=9
    )
    assert np.all(hist.values == 2.0)
    assert hist.reference == 2.0


def test_landscape_histogram_one_bin_for_equal_large_values():
    model = ConstantLoss(c=1e20)
    w = ParamVector.zeros_like(model.param_template)
    hist = landscape_histogram(model, w, 1.0, NormKind.EUCLIDEAN, 30, ONE_ROW, rng=0)
    assert hist.values.tolist() == [1e20] * 30
    assert hist.reference == 1e20


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_landscape_histogram_rejects_non_finite_risk(bad):
    model = ConstantLoss(c=bad)
    w = ParamVector.zeros_like(model.param_template)
    with pytest.raises(ValueError, match="non-finite neighborhood risk"):
        landscape_histogram(model, w, 1.0, NormKind.EUCLIDEAN, 5, ONE_ROW, rng=0)


def test_landscape_histogram_1d_quadratic_sphere_is_two_points():
    # In one dimension the norm-1 sphere is {-1, +1}, so every neighborhood
    # value equals 0.5.
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    hist = landscape_histogram(quad, quad.wrap(0.0), 1.0, NormKind.EUCLIDEAN, 500, S, rng=11)
    assert np.allclose(hist.values, 0.5, rtol=1e-12)


def test_landscape_histogram_shared_directions_reuse():
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    dirs = sample_directions(quad.param_template, 0.7, NormKind.EUCLIDEAN, 50, rng=12)
    h1, h2 = landscape_histogram(
        quad, [quad.wrap(0.0), quad.wrap(1.0)], 0.7, NormKind.EUCLIDEAN, 50, S, rng=12
    )
    assert h1.direction_digest == h2.direction_digest == directions_digest(dirs)
    with pytest.raises(ValueError):
        landscape_histogram(quad, [], 0.7, NormKind.EUCLIDEAN, 50, S, rng=12)


def test_landscape_histogram_threaded_matches_serial():
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.3]], y=[0], t=[0.2])
    serial = landscape_histogram(quad, quad.wrap(0.2), 0.4, NormKind.EUCLIDEAN, 64, S, rng=13)
    threaded = landscape_histogram(
        quad, quad.wrap(0.2), 0.4, NormKind.EUCLIDEAN, 64, S, rng=13, max_workers=4
    )
    assert np.array_equal(serial.values, threaded.values)


def test_sup_dominance_with_zero_direction_appended():
    # At radius 0 every drawn direction is the zero direction, so each
    # center's neighborhood sup is at least its own risk.
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.4])
    for hist in landscape_histogram(
        quad, [quad.wrap(0.9), quad.wrap(-0.3)], 0.0, NormKind.EUCLIDEAN, 21, S, rng=14
    ):
        assert hist.values.max() >= hist.reference


def test_flatness_report_identical_inputs_tie():
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    h1, h2 = landscape_histogram(
        quad, [quad.wrap(0.5), quad.wrap(0.5)], 0.3, NormKind.EUCLIDEAN, 30, S, rng=15
    )
    report = flatness_report(h1, h2)
    assert report.erm_gap == report.drm_gap
    assert report.flatter is None


def test_flatness_report_constant_loss_zero_gap():
    model = ConstantLoss()
    w = ParamVector([("w", np.zeros(3))])
    hist = landscape_histogram(model, [w, w], 1.0, NormKind.EUCLIDEAN, 25, ONE_ROW, rng=16)
    report = flatness_report(*hist)
    assert report.erm_gap == 0.0 and report.drm_gap == 0.0


def test_flatness_report_flags_flatter_center():
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    sharp, flat = landscape_histogram(
        quad, [quad.wrap(2.0), quad.wrap(0.0)], 0.5, NormKind.EUCLIDEAN, 40, S, rng=17
    )
    report = flatness_report(sharp, flat)
    assert report.flatter == "drm"


def _oracle_histograms(model, centers, gamma, kind, n, S, rng):
    """All n directions drawn as one list, then each center evaluated on it."""
    dirs = sample_directions(centers[0], gamma, kind, n, rng)
    rows = [u.flat() for u in dirs]
    out = [(neighborhood_risks(model, w, rows, S), model.batch_risk(w, S)) for w in centers]
    return out, directions_digest(dirs)


def _problem(which, dim, seed):
    rng = np.random.default_rng(seed)
    if which == "quadratic":
        model = QuadraticLoss(dim=dim)
        template = model.param_template
        S = Dataset(X=rng.standard_normal((5, dim)), y=[0] * 5, t=rng.standard_normal(5))
    else:
        spec = MlpSpec(input_dim=dim + 1, hidden_dims=(4,), num_classes=2)
        model, template = MlpLossModel(spec), spec.param_template()
        S = gen_gaussian_blobs(2, 12, dim + 1, 4.0, seed=seed)
    w = ParamVector.from_flat(template, rng.standard_normal(template.size))
    return model, w, S


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(["quadratic", "mlp"]),
    dim=st.integers(1, 4),
    n=st.integers(1, 200),
    n_centers=st.integers(1, 2),
    kind=st.sampled_from(list(NormKind)),
    gamma=st.sampled_from([0.0, 0.3, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(which="mlp", dim=3, n=1, n_centers=2, kind=NormKind.LAYERWISE_FROBENIUS, gamma=0.3, seed=0)
@example(which="mlp", dim=3, n=16, n_centers=2, kind=NormKind.SUP, gamma=2.0, seed=5)
@example(which="quadratic", dim=3, n=17, n_centers=2, kind=NormKind.LAYERWISE_FROBENIUS, gamma=0.3, seed=6)
@example(which="mlp", dim=3, n=63, n_centers=2, kind=NormKind.LAYERWISE_FROBENIUS, gamma=0.3, seed=1)
@example(which="mlp", dim=3, n=64, n_centers=2, kind=NormKind.EUCLIDEAN, gamma=2.0, seed=2)
@example(which="quadratic", dim=2, n=65, n_centers=2, kind=NormKind.SUP, gamma=0.3, seed=3)
@example(which="quadratic", dim=4, n=129, n_centers=1, kind=NormKind.EUCLIDEAN, gamma=2.0, seed=4)
def test_streamed_histograms_match_one_list_oracle(which, dim, n, n_centers, kind, gamma, seed):
    model, w, S = _problem(which, dim, seed)
    centers = [w, ParamVector.from_flat(w, -0.5 * w.flat())][:n_centers]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    hists = landscape_histogram(model, centers, gamma, kind, n, S, rng)
    expected, digest = _oracle_histograms(model, centers, gamma, kind, n, S, oracle_rng)
    assert len(hists) == n_centers
    for hist, (values, reference) in zip(hists, expected):
        assert hist.values.tobytes() == values.tobytes()
        assert hist.reference == reference
        assert hist.direction_digest == digest
    assert rng.standard_normal(3).tobytes() == oracle_rng.standard_normal(3).tobytes()


def test_one_center_returns_a_histogram_equal_to_the_list_call():
    model, w, S = _problem("mlp", 2, 5)
    single = landscape_histogram(model, w, 0.5, NormKind.EUCLIDEAN, 70, S, rng=6)
    (listed,) = landscape_histogram(model, [w], 0.5, NormKind.EUCLIDEAN, 70, S, rng=6)
    assert isinstance(single, Histogram)
    assert single.values.tobytes() == listed.values.tobytes()
    assert single.direction_digest == listed.direction_digest


def test_landscape_histogram_memory_does_not_grow_with_n():
    # 500 directions of the default 96-96-48 net held at once would take
    # 500 x 129 KB = 63 MiB; streamed, the peak is about one chunk of them.
    cfg = default_experiment_config(0)
    train, _ = build_datasets(cfg)
    model = MlpLossModel(cfg.mlp_spec())
    w = init_params(cfg.mlp_spec(), np.random.default_rng(0))
    tracemalloc.start()
    try:
        landscape_histogram(model, w, 5.0, cfg.drm.norm_kind, 500, train, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_flatness_report_rejects_mismatched_directions():
    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    h1 = landscape_histogram(quad, quad.wrap(0.0), 0.5, NormKind.EUCLIDEAN, 10, S, rng=18)
    h2 = landscape_histogram(quad, quad.wrap(0.0), 0.5, NormKind.EUCLIDEAN, 10, S, rng=19)
    with pytest.raises(ValueError):
        flatness_report(h1, h2)


def test_csv_text_layout():
    text = csv_text({"a": 1, "b": "x=y"}, "h1,h2", [("1", "2"), ("", "3")])
    assert text == "# a=1\n# b=x=y\nh1,h2\n1,2\n,3\n"
    assert csv_text({}, None, [("0.5",)]) == "0.5\n"
    assert csv_text({}, None, []) == ""


def test_csv_writers_roundtrip_shapes():
    tent = TentLoss(KAPPA, GAMMA_LOSS)
    study = rate_study(
        tent, (-2.0, 2.0), GAMMA_LOSS, [50, 100], trials=30, alpha=0.05,
        grid_points=65, rng=20, inner_points=65,
    )
    lines = rate_csv(study).splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "m,trials,q05,q50,q95,slope"
    assert len(lines) == header_idx + 1 + 2
    assert lines[2:4] == ["# gamma_mode=fixed", f"# all_nonpositive={int(study.all_nonpositive)}"]

    conf = confidence_region_check(
        tent, (-2.0, 2.0), GAMMA_LOSS, 0.0, m=50, trials=10, grid_points=65,
        rng=21, epsilons=[0.0, 0.1], inner_points=65,
    )
    lines = confidence_csv(conf).splitlines()
    assert lines[2:4] == ["# m=50", "# trials=10"]
    assert lines[-3] == "epsilon,pass_rate"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[-2:]]
    assert rows == list(zip(conf.epsilons, conf.pass_rates))

    quad = QuadraticLoss(dim=1)
    S = Dataset(X=[[1.0]], y=[0], t=[0.0])
    hist = landscape_histogram(quad, quad.wrap(0.0), 1.0, NormKind.EUCLIDEAN, 25, S, rng=22)
    lines = hist_csv(hist, solution="erm").splitlines()
    assert lines[0] == "# n=25" and lines[5] == "# solution=erm"
    values = [float(x) for x in lines if not x.startswith("#")]
    assert values == hist.values.tolist()
