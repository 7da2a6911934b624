"""Property tests of the two core representations: the flat ParamVector
buffer with its per-layer views, and the X/y Dataset."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diamrisk.data import Dataset
from diamrisk.params import (
    Box,
    NormKind,
    ParamVector,
    axpy,
    sample_sphere,
)
from oracles import norm

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SHAPES = st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), max_size=4)


@st.composite
def vectors(draw, shapes=SHAPES):
    layer_shapes = draw(shapes)
    return ParamVector(
        (f"l{i}", draw(hnp.arrays(np.float64, shape, elements=FINITE)))
        for i, shape in enumerate(layer_shapes)
    )


@SETTINGS
@given(v=vectors())
def test_flat_from_flat_and_json_round_trips(v):
    assert ParamVector.from_flat(v, v.flat()) == v
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        v.save(path)
        assert ParamVector.load(path) == v
    assert v.flat().shape == (v.size,)
    assert v.shapes == tuple(a.shape for a in v.arrays)
    assert np.array_equal(
        v.flat(), np.concatenate([a.ravel() for a in v.arrays]) if len(v) else np.empty(0)
    )


@SETTINGS
@given(v=vectors())
def test_views_are_read_only_and_alias_the_buffer(v):
    flat = v.flat()
    assert not flat.flags.writeable
    for arr in v.arrays:
        assert not arr.flags.writeable
        assert arr.size == 0 or np.shares_memory(arr, flat)
        with pytest.raises(ValueError):
            arr.flags.writeable = True


@SETTINGS
@given(v=vectors(), seed=st.integers(0, 2**32 - 1))
def test_from_flat_and_construction_copy_their_input(v, seed):
    source = np.random.default_rng(seed).standard_normal(v.size)
    copy = ParamVector.from_flat(v, source)
    source += 1.0
    assert not np.shares_memory(copy.flat(), source)
    assert np.array_equal(copy.flat() + 1.0, source)
    layers = [np.array(a) for a in v.arrays]
    rebuilt = ParamVector(zip(v.names, layers))
    for layer in layers:
        layer += 1.0
    assert rebuilt == v


def test_non_finite_error_names_the_first_bad_layer():
    good = np.ones(3)
    with pytest.raises(ValueError, match="'b'"):
        ParamVector([("a", good), ("b", np.array([1.0, np.nan])), ("c", np.array([np.inf]))])
    w = ParamVector([("a", good), ("b", np.full(2, 1e308))])
    with pytest.raises(ValueError, match="'b'"), np.errstate(over="ignore"):
        axpy(w, 10.0, w)  # overflow in the second layer only


@SETTINGS
@given(
    shapes=st.lists(
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4), min_size=1, max_size=3
    ),
    gamma=st.floats(1e-3, 1e3),
    kind=st.sampled_from(list(NormKind)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_norm_is_gamma_for_every_kind(shapes, gamma, kind, seed):
    template = ParamVector((f"l{i}", np.zeros(s)) for i, s in enumerate(shapes))
    u = sample_sphere(template, gamma, kind, np.random.default_rng(seed))
    assert u.shapes == template.shapes
    got = norm(u, kind)
    for value in got if isinstance(got, list) else [got]:
        assert value == pytest.approx(gamma, rel=1e-12)


@SETTINGS
@given(
    w=vectors(SHAPES.filter(lambda s: any(np.prod(x) for x in s))),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.0, 10.0),
)
def test_projection_is_idempotent_and_feasible(w, lo, width):
    feasible = Box(lo, lo + width)
    once = feasible.project(w)
    assert feasible.contains(once)
    assert feasible.project(once) == once


@st.composite
def datasets(draw):
    m = draw(st.integers(0, 12))
    d = draw(st.integers(0, 4))
    k = draw(st.integers(2, 5))
    return Dataset(
        X=draw(hnp.arrays(np.float64, (m, d), elements=FINITE)),
        y=draw(hnp.arrays(np.int64, (m,), elements=st.integers(0, k - 1))),
        num_classes=k,
    )


@SETTINGS
@given(data=st.data(), S=datasets())
def test_row_selection_returns_exactly_those_rows(data, S):
    idx = data.draw(st.lists(st.integers(0, max(len(S) - 1, 0)), max_size=8 if len(S) else 0))
    sub = S[np.array(idx, dtype=np.int64)]
    assert len(sub) == len(idx) and sub.num_classes == S.num_classes
    assert np.array_equal(sub.X, S.X[idx])
    assert np.array_equal(sub.y, S.y[idx])
    if len(S):
        one = S[len(S) - 1]
        assert len(one) == 1 and np.array_equal(one.X[0], S.X[-1])


@SETTINGS
@given(S=datasets(), below=st.booleans())
def test_dataset_rejects_out_of_range_labels(S, below):
    if len(S) == 0:
        return
    y = S.y.copy()
    y[-1] = -1 if below else S.num_classes
    with pytest.raises(ValueError, match="outside"):
        Dataset(X=S.X, y=y, num_classes=S.num_classes)


def test_dataset_rejects_non_integral_labels():
    # A label the int64 cast would change is refused, not truncated: from
    # the constructor and from from_labels alike, and nan without a cast
    # warning (warnings are errors here).
    for y, first in (([0.9, 1.2], "0.9"), ([0.5, 1.7, 0.2], "0.5"), ([1.0, np.nan], "nan"), ([np.inf], "inf")):
        with pytest.raises(ValueError, match=f"^label {first} is not an integer$"):
            Dataset(X=np.zeros((len(y), 1)), y=y)
        with pytest.raises(ValueError, match=f"^label {first} is not an integer$"):
            Dataset.from_labels(y)
    for y in ([0.0, 1.0, 1.0], np.array([False, True, True]), np.array([0, 1, 1], dtype=np.uint8)):
        S = Dataset.from_labels(y)
        assert S.y.dtype == np.int64 and S.y.tolist() == [0, 1, 1]
    assert len(Dataset.from_labels([])) == 0
    # int64 labels are kept as they are, with no copy and no check.
    y = np.array([1, 0, 1], dtype=np.int64)
    assert Dataset(X=np.zeros((3, 2)), y=y).y is y


def test_dataset_rejects_inconsistent_shapes():
    y = np.array([0, 1, 1])
    with pytest.raises(ValueError, match="shape"):
        Dataset(X=np.zeros((2, 2)), y=y)
