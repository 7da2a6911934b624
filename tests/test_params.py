import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diamrisk.mlp import MlpSpec
from diamrisk.params import (
    Box,
    NonFiniteError,
    NormKind,
    ParamVector,
    _array_norm,
    axpy,
    sample_sphere,
    sphere_rows,
)
from oracles import norm, zeros_like


def pv(*layers):
    return ParamVector((f"l{i}", np.asarray(a, dtype=float)) for i, a in enumerate(layers))


def test_norm_zero_vector_all_kinds():
    v = pv(np.zeros((2, 3)), np.zeros(4))
    assert norm(v, NormKind.EUCLIDEAN) == 0.0
    assert norm(v, NormKind.SUP) == 0.0
    assert norm(v, NormKind.LAYERWISE_FROBENIUS) == [0.0, 0.0]


def test_norm_345_triple():
    v = pv([3.0, 4.0])
    assert norm(v, NormKind.LAYERWISE_FROBENIUS) == [5.0]
    assert norm(v, NormKind.EUCLIDEAN) == 5.0


def test_norm_sup_is_max_abs():
    v = pv([-2.0, 1.0, 3.0])
    assert norm(v, NormKind.SUP) == 3.0


def test_norm_zero_iff_zero_vector():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = pv(rng.standard_normal(5))
        if np.any(v.arrays[0] != 0):
            assert norm(v, NormKind.EUCLIDEAN) > 0
            assert norm(v, NormKind.SUP) > 0


def test_param_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        pv([1.0, np.nan])
    with pytest.raises(ValueError):
        pv([np.inf])


def test_param_vector_immutable():
    v = pv([1.0, 2.0])
    with pytest.raises(ValueError):
        v.arrays[0][0] = 3.0


def test_flat_order_is_layer_then_row_major():
    v = ParamVector([("a", np.array([[1.0, 2.0], [3.0, 4.0]])), ("b", np.array([5.0]))])
    assert np.array_equal(v.flat(), [1.0, 2.0, 3.0, 4.0, 5.0])
    back = ParamVector.from_flat(v, v.flat())
    assert back == v


def test_sample_sphere_gamma_zero_is_zero_vector():
    template = pv(np.ones((2, 2)), np.ones(3))
    u = sample_sphere(template, 0.0, NormKind.EUCLIDEAN, np.random.default_rng(1))
    assert u == zeros_like(template)


def test_sample_sphere_layerwise_each_layer_hits_gamma():
    template = pv(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)))
    u = sample_sphere(template, 10.0, NormKind.LAYERWISE_FROBENIUS, np.random.default_rng(2))
    for layer_norm in norm(u, NormKind.LAYERWISE_FROBENIUS):
        assert abs(layer_norm - 10.0) <= 1e-9 * 10.0


def test_sample_sphere_deterministic_given_seed():
    template = pv(np.zeros((3, 3)), np.zeros(2))
    a = sample_sphere(template, 2.5, NormKind.EUCLIDEAN, np.random.default_rng(7))
    b = sample_sphere(template, 2.5, NormKind.EUCLIDEAN, np.random.default_rng(7))
    assert a == b


def test_sample_sphere_norm_matches_gamma_all_kinds():
    template = pv(np.zeros((5, 2)), np.zeros(7))
    rng = np.random.default_rng(3)
    for kind in NormKind:
        for gamma in (1e-3, 1.0, 42.0):
            u = sample_sphere(template, gamma, kind, rng)
            got = norm(u, kind)
            values = got if isinstance(got, list) else [got]
            for value in values:
                assert abs(value - gamma) <= 1e-9 * gamma


# Reference oracle: the per-layer sampler that drew one Gaussian vector per
# layer. sample_sphere draws the whole buffer at once and must give the same
# bits and leave the generator in the same state.
_MAX_RESAMPLE_ATTEMPTS = 100


def _draw_unit(rng: np.random.Generator, size: int) -> np.ndarray:
    """One Gaussian draw of size values; redraws an all-zero draw (probability ~0)."""
    for _ in range(_MAX_RESAMPLE_ATTEMPTS):
        g = rng.standard_normal(size)
        if np.any(g != 0.0):
            return g
    raise RuntimeError(
        f"degenerate Gaussian draw persisted for {_MAX_RESAMPLE_ATTEMPTS} attempts"
    )


def oracle_sample_sphere(
    template: ParamVector, gamma: float, kind: NormKind, rng: np.random.Generator
) -> ParamVector:
    """Uniform random direction with norm exactly gamma, shaped like template.

    Each component is drawn from a standard normal and the result is rescaled
    to have norm gamma: per layer under LAYERWISE_FROBENIUS, for the flattened
    vector under EUCLIDEAN/SUP. gamma = 0 returns the zero vector without
    consuming any randomness.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return zeros_like(template)

    layerwise = kind is NormKind.LAYERWISE_FROBENIUS
    out = np.zeros(template.size)
    offset = 0
    for shape in template.shapes:
        size = math.prod(shape)
        if size:
            g = _draw_unit(rng, size)
            if layerwise:
                g = g * (gamma / _array_norm(g, NormKind.EUCLIDEAN))
            out[offset : offset + size] = g
        offset += size
    if not layerwise:
        denom = _array_norm(out, kind)
        if denom == 0.0:
            raise RuntimeError("whole-vector draw degenerate after per-layer resampling")
        out = out * (gamma / denom)
    return template._like(out)


def assert_same_draws(template, gamma, kind, seed, n=1):
    """n draws of sample_sphere and of the oracle agree bit for bit, and so
    does the next value each generator gives afterwards."""
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        try:
            expected = oracle_sample_sphere(template, gamma, kind, rng_old)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                sample_sphere(template, gamma, kind, rng_new)
            return
        got = sample_sphere(template, gamma, kind, rng_new)
        assert got.names == expected.names and got.shapes == expected.shapes
        assert got.flat().tobytes() == expected.flat().tobytes()
    assert rng_new.standard_normal(4).tobytes() == rng_old.standard_normal(4).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5), max_size=5),
    kind=st.sampled_from(list(NormKind)),
    gamma=st.floats(0.0, 1e6, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_sphere_matches_per_layer_oracle(shapes, kind, gamma, seed):
    template = pv(*(np.zeros(shape) for shape in shapes))
    assert_same_draws(template, gamma, kind, seed, n=2)


@pytest.mark.parametrize("kind", list(NormKind))
def test_sample_sphere_matches_per_layer_oracle_on_default_net(kind):
    template = MlpSpec(20, (96, 96, 48), 3).param_template()
    assert_same_draws(template, 2.0, kind, seed=0, n=5)


def test_sample_sphere_zero_norm_draw_raises():
    class ZeroRng:
        def standard_normal(self, size=None, out=None):
            if out is None:
                return np.zeros(size)
            out.fill(0.0)
            return out

    template = pv(np.zeros(3), np.zeros((2, 2)))
    for kind in NormKind:
        with pytest.raises(RuntimeError):
            sample_sphere(template, 1.0, kind, ZeroRng())


def assert_rows_match_oracle(template, gamma, kind, seed, k):
    """k rows of one sphere_rows stack equal k successive oracle draws bit
    for bit, and the two generators are left in the same state."""
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = [oracle_sample_sphere(template, gamma, kind, rng_old).flat() for _ in range(k)]
    except RuntimeError:
        with pytest.raises(RuntimeError):
            sphere_rows(template, gamma, kind, k, rng_new)
        return
    got = sphere_rows(template, gamma, kind, k, rng_new)
    assert got.dtype == np.float64 and got.shape == (k, template.size)
    assert got.tobytes() == np.array(expected).reshape(k, template.size).tobytes()
    assert rng_new.standard_normal(4).tobytes() == rng_old.standard_normal(4).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5), max_size=5),
    kind=st.sampled_from(list(NormKind)),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False)),
    k=st.sampled_from([1, 16, 17, 40]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_rows_match_successive_oracle_draws(shapes, kind, gamma, k, seed):
    template = pv(*(np.zeros(shape) for shape in shapes))
    assert_rows_match_oracle(template, gamma, kind, seed, k)


@pytest.mark.parametrize("kind", list(NormKind))
def test_sphere_rows_match_successive_sample_sphere_calls_on_default_net(kind):
    template = MlpSpec(20, (96, 96, 48), 3).param_template()
    rng_rows, rng_calls = np.random.default_rng(3), np.random.default_rng(3)
    out = np.full((20, template.size), np.nan)  # a reused buffer: its first 17 rows are filled
    rows = sphere_rows(template, 2.0, kind, 17, rng_rows, out=out)
    calls = [sample_sphere(template, 2.0, kind, rng_calls).flat() for _ in range(17)]
    assert rows.shape == (17, template.size) and np.shares_memory(rows, out)
    assert rows.tobytes() == np.array(calls).tobytes() and np.isnan(out[17:]).all()
    assert rng_rows.standard_normal(4).tobytes() == rng_calls.standard_normal(4).tobytes()


def test_sphere_rows_zero_norm_draw_raises():
    class ZeroRng:
        def standard_normal(self, size=None, out=None):
            out.fill(0.0)
            return out

    template = pv(np.zeros(3), np.zeros((2, 2)))
    for kind in NormKind:
        with pytest.raises(RuntimeError, match="zero-norm segment"):
            sphere_rows(template, 1.0, kind, 3, ZeroRng())


def test_sphere_rows_overflowing_radius_raises_non_finite_error():
    # A one-value layer drawn below 1 in magnitude scales by 1e308 / |z|,
    # which overflows; the row must not come back holding an infinity.
    template = pv(np.zeros(1), np.zeros(3))
    with pytest.raises(NonFiniteError, match="layer 'l0'"):
        sphere_rows(template, 1e308, NormKind.LAYERWISE_FROBENIUS, 8, np.random.default_rng(0))


def test_project_identity_inside_box():
    w = pv([0.2, 0.8])
    assert Box(0.0, 1.0).project(w) == w


def test_default_box_is_the_whole_space_and_projects_to_w_itself():
    w = pv([-1e300, 0.0, 1e300])
    assert Box() == Box(-math.inf, math.inf) and Box().contains(w)
    assert Box().project(w) is w


def test_project_box_clips():
    w = pv([5.0])
    assert Box(0.0, 1.0).project(w) == pv([1.0])


def test_project_idempotent_exactly():
    rng = np.random.default_rng(11)
    for feasible in (Box(), Box(-0.5, 0.25)):
        for _ in range(50):
            w = pv(rng.standard_normal(6) * 3.0)
            once = feasible.project(w)
            assert feasible.contains(once)
            assert feasible.project(once) == once


def test_project_is_nearest_point():
    # For 1000 random feasible x, ||proj(w) - w|| <= ||x - w||.
    rng = np.random.default_rng(12)
    feasible = Box(-1.0, 2.0)
    w = pv(rng.standard_normal(4) * 5.0)
    p = feasible.project(w)
    p_dist = norm(axpy(p, -1.0, w), NormKind.EUCLIDEAN)
    for _ in range(1000):
        x = pv(rng.uniform(-1.0, 2.0, size=4))
        assert feasible.contains(x)
        x_dist = norm(axpy(x, -1.0, w), NormKind.EUCLIDEAN)
        assert p_dist <= x_dist + 1e-12


def test_box_requires_lo_le_hi():
    with pytest.raises(ValueError):
        Box(1.0, 0.0)


def test_axpy_basics():
    w = pv([1.0, 2.0])
    d = pv([1.0, 2.0])
    assert axpy(w, 0.0, d) == w
    assert axpy(zeros_like(d), 1.0, d) == d
    assert axpy(w, -1.0, d) == pv([0.0, 0.0])


def test_axpy_shape_mismatch_errors():
    with pytest.raises(ValueError):
        axpy(pv([1.0, 2.0]), 1.0, pv([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        axpy(pv([1.0]), 1.0, ParamVector([("other", np.array([1.0]))]))


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    v = pv(rng.standard_normal((3, 2)), rng.standard_normal(5))
    path = tmp_path / "w.json"
    v.save(path)
    assert path.read_text() == v.to_json()
    assert ParamVector.load(path) == v


def test_to_json_is_json_dumps_of_the_layer_dict():
    rng = np.random.default_rng(5)
    edges = [-0.0, 5e-324, -5e-324, 1e-300, 0.1, 1.0, 1e16, 1e308, -1.7976931348623157e308]
    v = ParamVector([
        ("W0", np.array(edges)),
        ("b0", rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))),
        ('la"yer é', np.zeros((0, 2))),
        ("s", np.array(2.5)),
    ])
    layers = {n: {"shape": list(a.shape), "data": a.ravel().tolist()} for n, a in v}
    assert v.to_json() == json.dumps(layers)
    assert ParamVector([]).to_json() == json.dumps({})
