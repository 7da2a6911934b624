"""Reference implementations and fixtures that only the tests use.

The package holds what the command line runs; these are the independent
oracles the tests check it against (a finite-difference gradient checker,
scalar reference losses, a direction digest) and a convex quadratic fixture.
A quadratic dataset carries its regression targets as the last column of X.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from diamrisk.data import Dataset
from diamrisk.losses import LossModel
from diamrisk.mlp import _nll_rows
from diamrisk.params import NormKind, ParamVector, _array_norm


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


def directions_digest(directions: Sequence[ParamVector]) -> str:
    """sha256 of the directions' flat bytes in order: the digest a Histogram
    records for the directions it was built from."""
    h = hashlib.sha256()
    for u in directions:
        h.update(u.flat().tobytes())
    return h.hexdigest()
