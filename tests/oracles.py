"""Reference implementations and fixtures that only the tests use.

Here are the independent oracles the tests check the package against: a
finite-difference gradient checker, scalar reference losses, a label
counter, a direction digest, a worker-free training row source and the
hand-written flag converters that the config schema's checker replaced. Here too are a convex quadratic fixture,
the zero vector that the constant-loss fixtures return as their gradient,
and the table of bad config values that both the config parser and the
command line must refuse. A quadratic dataset carries its regression
targets as the last column of X. The package keeps a few references of its
own, which the benchmark or the acceptance criteria pin; README lists them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Sequence

import numpy as np

from diamrisk.data import Dataset
from diamrisk.harness import MAX_COUNT
from diamrisk.losses import LossModel
from diamrisk.mlp import _nll_rows
from diamrisk.params import NormKind, ParamVector, _array_norm
from diamrisk.risk import direction_chunks


def zeros_like(template: ParamVector) -> ParamVector:
    """The zero vector shaped like template: the constant-loss fixtures'
    gradient."""
    return ParamVector.from_flat(template, np.zeros(template.size))


def quadratic_data(X, t, num_classes: int = 2) -> Dataset:
    """Rows of the quadratic fixture: features X (m, d), targets t (m,),
    stored as the columns of one (m, d + 1) feature matrix, labels all 0."""
    y = np.zeros(len(t), dtype=np.int64)
    return Dataset(X=np.column_stack([X, t]), y=y, num_classes=num_classes)


def _index_order_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over axis 0, accumulated row by row in ascending index order.

    np.cumsum adds strictly left to right, so the result equals a Python
    loop of += bit for bit (np.mean sums pairwise and does not).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] == 0:
        raise ValueError("empty batch")
    return np.cumsum(rows, axis=0)[-1] / rows.shape[0]


def quadratic_eval(w: ParamVector, S: Dataset) -> np.ndarray:
    """Per-row half squared residual 0.5 * (<x, w> - t)^2 over the rows of S."""
    flat = w.flat()
    if S.X.shape[1] - 1 != flat.shape[0]:
        raise ValueError(
            f"feature dimension {S.X.shape[1] - 1} does not match parameters {flat.shape}"
        )
    residual = S.X[:, :-1] @ flat - S.X[:, -1]
    return 0.5 * residual * residual


class QuadraticLoss(LossModel):
    """Convex quadratic loss over a dim-vector parameter (convexity fixture)."""

    def __init__(self, dim: int = 1):
        self.param_template = ParamVector([("w", np.zeros(dim))])

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        return float(_index_order_mean(quadratic_eval(w, S)))

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        risk = self.batch_risk(w, S)
        features = S.X[:, :-1]
        residual = features @ w.flat() - S.X[:, -1]
        return risk, ParamVector.from_flat(w, _index_order_mean(residual[:, None] * features))

    # 1-D curve support for the grid-based neighborhood-sup oracle.
    def risk_curve(self, w_points: np.ndarray, S: Dataset) -> np.ndarray:
        """Empirical risk at every point of w_points (1-D quadratic only)."""
        if self.param_template.size != 1:
            raise ValueError("risk_curve only applies to the 1-D quadratic")
        w_points = np.asarray(w_points, dtype=np.float64)
        rows = 0.5 * np.square(S.X[:, :1] * w_points.ravel() - S.X[:, -1:])
        return _index_order_mean(rows).reshape(w_points.shape)

    def wrap(self, x: float) -> ParamVector:
        if self.param_template.size != 1:
            raise ValueError("wrap only applies to the 1-D quadratic")
        return ParamVector.from_flat(self.param_template, np.array([float(x)]))


def finite_diff_grad(
    model: LossModel, w: ParamVector, S: Dataset, step: float = 1e-5
) -> ParamVector:
    """Central-difference gradient of model.batch_risk at (w, S), coordinate
    by coordinate."""
    flat = w.flat()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        hi = model.batch_risk(ParamVector.from_flat(w, flat + bump), S)
        lo = model.batch_risk(ParamVector.from_flat(w, flat - bump), S)
        out[i] = (hi - lo) / (2.0 * step)
    return ParamVector.from_flat(w, out)


def gradient_check(
    model: LossModel,
    pairs: Sequence[tuple[ParamVector, Dataset]],
    step: float = 1e-5,
) -> float:
    """Worst scaled error between analytic and finite-difference gradients.

    Each pair is a parameter vector and a Dataset (one row probes a single
    record). The error is ||g - g_fd||_inf / max(1, ||g||_inf), so tiny
    gradients are compared absolutely and large ones relatively. Callers
    should keep the probe points away from declared non-differentiable
    parameters.
    """
    worst = 0.0
    for w, S in pairs:
        g = model.batch_grad(w, S)[1].flat()
        g_fd = finite_diff_grad(model, w, S, step).flat()
        denom = max(1.0, float(np.max(np.abs(g))) if g.size else 0.0)
        err = float(np.max(np.abs(g - g_fd))) / denom if g.size else 0.0
        worst = max(worst, err)
    return worst


def reciprocal_eval(w: float, z: int) -> float:
    """Reciprocal loss: 1/w (z=0) or -1/w (z=1) for w > 0, zero otherwise."""
    if w <= 0:
        return 0.0
    return (1.0 - 2.0 * z) / w


def rho_m_reference(labels: Sequence[int]) -> int:
    """losses.rho_m by np.isin: the labels outside {0, 1} first, then the
    two counts."""
    labels = np.asarray(labels)
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    return int(np.sum(labels == 0) - np.sum(labels == 1))


def nll_softmax(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label] for one row of logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    return float(_nll_rows(logits.reshape(1, -1), np.array([label]))[0][0])


def norm(v: ParamVector, kind: NormKind):
    """Norm of v; a per-layer list of Frobenius norms for LAYERWISE_FROBENIUS."""
    if kind is NormKind.LAYERWISE_FROBENIUS:
        return [_array_norm(a, NormKind.EUCLIDEAN) for a in v.arrays]
    return _array_norm(v.flat(), kind)


def _plain(value):
    """value with every numpy array or scalar in it, at any depth, replaced
    by the Python list or number it holds, and every tuple by a list."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def directions_digest(
    rng: np.random.Generator, n: int, gamma: float, kind: NormKind, template: ParamVector
) -> str:
    """sha256 of the recipe of n norm-gamma directions shaped like template,
    about to be drawn from rng: the sorted-key JSON list of its bit-generator
    state, n, gamma, the norm kind's name and the layer shapes. It is the
    digest a Histogram records for the directions it was built from."""
    recipe = [_plain(rng.bit_generator.state), n, float(gamma), kind.value, _plain(template.shapes)]
    return hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()


class SerialRows:
    """risk.RowRing with no worker: each draw is risk.direction_chunks on
    the calling thread, as training drew before its ring, so a run with
    optimizer.RowRing set to this class is the serial reference."""

    def __init__(self, template, gamma, kind, r, draws, rng, depth):
        self.args = (template, gamma, kind, r, rng)

    def draw(self):
        return direction_chunks(*self.args)

    def close(self):
        pass


# The command line's flag converters before flags were checked by the config
# schema's harness._check, kept verbatim as the reference for what each flag
# accepts and the value it yields.
def _checked(convert, ok, requirement: str):
    """argparse type= converter: convert the text, then require ok(value)."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")

    return parse


def _count(low: int):
    """A size flag, bounded like the config schema's counts."""
    return _checked(int, lambda v: low <= v <= MAX_COUNT, f"an integer in [{low}, {MAX_COUNT}]")


def _comma_list(kind):
    return lambda text: [kind(x) for x in text.split(",")]


_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
# A 1-D radius whose neighbourhood width 2 * gamma is a finite float.
_radius_1d = _checked(float, lambda v: 0 <= v <= sys.float_info.max / 2, "a number in [0, max float / 2]")
_fraction = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_kappa = _checked(float, lambda v: 1 < v < math.inf, "a finite number > 1")
_sizes = _checked(
    _comma_list(int), lambda v: 0 < v[0] and v[-1] <= MAX_COUNT and v == sorted(set(v)),
    f"increasing sizes in [1, {MAX_COUNT}]",
)
_slacks = _checked(_comma_list(float), lambda v: all(0 <= e < math.inf for e in v), "finite values >= 0")

# Every numeric flag, (command, flag, reference converter).
FLAG_CONVERTERS = [
    ("run", "--seed", _seed),
    *[(c, "--seed", _seed) for c in ("rate", "confidence", "landscape", "examples")],
    *[(c, f, conv) for c in ("rate", "confidence", "examples") for f, conv in (
        ("--kappa", _kappa), ("--gamma-loss", _fraction), ("--gamma", _radius_1d), ("--grid", _count(3)),
        ("--inner", _count(3)), ("--w-lo", _finite), ("--w-hi", _finite),
    )],
    ("rate", "--m", _sizes), ("rate", "--trials", _count(30)), ("rate", "--alpha", _fraction),
    ("confidence", "--m", _count(1)), ("confidence", "--trials", _count(1)),
    ("confidence", "--delta", _finite), ("confidence", "--eps", _slacks),
    ("landscape", "--gamma", _nonnegative), ("landscape", "--n", _count(1)),
    ("examples", "--m", _count(1)), ("examples", "--trials", _count(1)),
]


# (section, key, value) config values the parser must refuse, each naming
# section.key (the section, for key None) in its error; key None replaces the
# whole section and section "config" is the top level. Each of these used to
# pass the parser and fail (or silently degrade) only during or after
# training.
BAD_VALUES = [
    ("landscape", "n_samples", 2**31),
    ("landscape", "n_samples", 0),
    ("dataset", "n_test", 0),
    ("dataset", "num_classes", 1),
    ("dataset", "input_dim", 2),  # fewer dimensions than classes
    ("dataset", "separation", 0.0),
    ("mlp", "hidden_dims", ["abc"]),
    ("mlp", "hidden_dims", [0]),
    ("mlp", "hidden_dims", 8),
    ("drm", "p", "x"),
    # Non-finite numbers (JSON NaN / Infinity).
    ("drm", "gamma", float("nan")),
    ("drm", "final_fraction", float("nan")),
    ("drm", "lr", float("inf")),
    ("drm", "final_lr", float("-inf")),
    ("dataset", "separation", float("inf")),
    ("dataset", "n_train", float("inf")),
    ("drm", "sample_every", 0),
    ("drm", "batch_size", 0),
    ("drm", "r", 0),
    ("drm", "feasible", {"kind": "box", "lo": 1, "hi": 0}),
    ("drm", "feasible", "box"),
    ("drm", "epochs", 1.7),
    ("drm", "gamma", True),
    ("dataset", "n_train", True),
    ("mlp", "hidden_dims", [True]),
    ("mlp", "hidden_dims", [8.5]),
    ("dataset", None, []),
    ("mlp", None, "wide"),
    ("drm", None, None),
    ("landscape", None, 7),
    ("config", "out_dir", 7),
    ("drm", "lr_schedule", [[36, True]]),
    ("drm", "lr_schedule", [[36.9, 0.1]]),
    ("drm", "lr_schedule", [["36", "0.1"]]),
    ("drm", "lr_schedule", [[float("inf"), 0.1]]),
    # Numbers must be JSON numbers, not numeric strings.
    ("dataset", "n_train", "60"),
    ("drm", "gamma", " 1.5 "),
    ("mlp", "hidden_dims", ["8", "8"]),
    ("landscape", "n_samples", "16"),
    ("drm", "final_fraction", -1e308),
    # Sizes past MAX_COUNT: numpy's "Maximum allowed size exceeded" while
    # building the data, and an epoch count whose iteration total overflows
    # a float in the learning-rate schedule.
    ("dataset", "n_train", 10**30),
    ("drm", "epochs", 1e308),
    ("drm", "lr_schedule", [[2**31, 0.1]]),
    # Seeds must be >= 0.
    ("dataset", "seed", -1),
    ("mlp", "seed", -1),
    ("drm", "seed", -3),
]


def set_bad_value(obj: dict, section: str, key, value) -> str:
    """Put one BAD_VALUES case into the config dict obj; the name its error
    must contain."""
    if key is None:
        obj[section] = value
    else:
        (obj if section == "config" else obj[section])[key] = value
    if key == "p":
        del obj["drm"]["sample_every"]
    return section if key is None else f"{section}.{key}"
