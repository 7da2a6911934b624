"""Loss models: empirical risk over a Dataset, and its gradient where a loop
trains the model.

Includes two 1-D analytic losses whose true risk is identically zero (a
piecewise-linear "tent" with a steep slope, and a reciprocal loss that is not
even Lipschitz), plus a convex quadratic fixture. Both analytic losses make
plain empirical-risk minimization misbehave while the worst-case-neighborhood
risk stays well behaved, which is what the 1-D studies measure; nothing
trains them, so they have no gradient. A single record is a one-row Dataset.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import Dataset
from .params import ParamVector


def rho_m(labels: Sequence[int]) -> int:
    """Number of zero labels minus number of one labels."""
    labels = np.asarray(labels)
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    return int(np.sum(labels == 0) - np.sum(labels == 1))


def _index_order_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over axis 0, accumulated row by row in ascending index order.

    np.cumsum adds strictly left to right, so the result equals a Python
    loop of += bit for bit (np.mean sums pairwise and does not).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] == 0:
        raise ValueError("empty batch")
    return np.cumsum(rows, axis=0)[-1] / rows.shape[0]


def label_mean(per_label, values, counts) -> np.ndarray:
    """Empirical risk of a sample with the given label counts, for a loss
    that depends on a row only through its label: per_label[lab] holds that
    label's loss values, and the count-weighted sum runs over the labels in
    the order given (np.unique's ascending order). It is the same sum as
    over the m rows up to floating-point rounding.
    """
    acc = 0.0
    for lab, count in zip(values, counts):
        acc = acc + count * per_label[int(lab)]
    return acc / counts.sum()


class LossModel:
    """Empirical risk, consumed by the risk and optimizer layers.

    Subclasses implement batch_risk (mean loss over the rows of a Dataset)
    and, if a loop trains them, batch_grad (that mean and its gradient in w).
    """

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        raise NotImplementedError

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        raise NotImplementedError


class ScalarLossModel(LossModel):
    """1-D loss over a scalar parameter, stored as one shape-(1,) layer.

    The loss depends on a row only through its label, so every risk is a
    label-count sum (label_mean) of eval_scalar, which is vectorized over w.
    breakpoints lists the parameter values where the loss is not
    differentiable.
    """

    breakpoints: tuple[float, ...] = ()

    def eval_scalar(self, w, label: int):
        raise NotImplementedError

    def wrap(self, x: float) -> ParamVector:
        return ParamVector([("w", np.array([float(x)]))])

    def risk_curve(self, w_points: np.ndarray, S: Dataset) -> np.ndarray:
        """Empirical risk at every point of w_points, one eval_scalar call per
        distinct label."""
        if len(S) == 0:
            raise ValueError("empty sample")
        values, counts = np.unique(S.y, return_counts=True)
        w_points = np.asarray(w_points, dtype=np.float64)
        return label_mean({int(lab): self.eval_scalar(w_points, int(lab)) for lab in values}, values, counts)

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        return float(self.risk_curve(w.flat()[:1], S)[0])

    def true_risk_curve(self, w_points: np.ndarray) -> np.ndarray:
        """Both analytic losses have zero true risk everywhere."""
        return np.zeros(np.shape(w_points))

    def sample_labels(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m labels drawn equiprobably from {0, 1}."""
        return rng.integers(0, 2, size=m)


def _tent_shape(w: np.ndarray, kappa: float, gamma_loss: float) -> np.ndarray:
    slope = kappa / gamma_loss
    return np.select(
        [(w >= -gamma_loss) & (w < 0.0), (w >= 0.0) & (w < gamma_loss)],
        [slope * w + kappa, -slope * w + kappa],
        default=0.0,
    )


class TentLoss(ScalarLossModel):
    """Steep piecewise-linear loss with zero expected value everywhere:

        kappa*w/gamma_loss + kappa   if w in [-gamma_loss, 0), z = 0
       -kappa*w/gamma_loss - kappa   if w in [-gamma_loss, 0), z = 1
       -kappa*w/gamma_loss + kappa   if w in [0, gamma_loss),  z = 0
        kappa*w/gamma_loss - kappa   if w in [0, gamma_loss),  z = 1
        0                            otherwise

    The slope magnitude kappa/gamma_loss is the Lipschitz modulus in w; large
    values make the empirical risk landscape arbitrarily sharp around 0.
    """

    def __init__(self, kappa: float = 2.0, gamma_loss: float = 0.5):
        if not kappa > 1:
            raise ValueError(f"kappa must be > 1, got {kappa}")
        if not 0 < gamma_loss < 1:
            raise ValueError(f"gamma_loss must be in (0, 1), got {gamma_loss}")
        self.kappa = float(kappa)
        self.gamma_loss = float(gamma_loss)
        self.breakpoints = (-self.gamma_loss, 0.0, self.gamma_loss)

    def eval_scalar(self, w, label: int):
        return _tent_shape(np.asarray(w, dtype=float), self.kappa, self.gamma_loss) * (
            1 - 2 * label
        )


def reciprocal_eval(w: float, z: int) -> float:
    """Reciprocal loss: 1/w (z=0) or -1/w (z=1) for w > 0, zero otherwise."""
    if w <= 0:
        return 0.0
    return (1.0 - 2.0 * z) / w


class ReciprocalLoss(ScalarLossModel):
    """Non-Lipschitz loss whose empirical risk is unbounded below near 0.

    When the sample skews to z = 1, the empirical risk dives to -inf as
    w decreases to 0+, so plain empirical minimization has unbounded
    downward bias; the true risk is still zero everywhere.
    """

    breakpoints = (0.0,)

    def eval_scalar(self, w, label: int):
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        mask = w > 0
        np.divide(1.0 - 2.0 * label, w, out=out, where=mask)
        return out


def quadratic_eval(w: ParamVector, S: Dataset) -> np.ndarray:
    """Per-row half squared residual 0.5 * (<x, w> - t)^2 over the rows of S."""
    flat = w.flat()
    if S.X.shape[1] != flat.shape[0]:
        raise ValueError(
            f"feature dimension {S.X.shape[1]} does not match parameters {flat.shape}"
        )
    residual = S.X @ flat - S.t
    return 0.5 * residual * residual


class QuadraticLoss(LossModel):
    """Convex quadratic loss over a dim-vector parameter (convexity fixture)."""

    def __init__(self, dim: int = 1):
        self.param_template = ParamVector([("w", np.zeros(dim))])

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        return float(_index_order_mean(quadratic_eval(w, S)))

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        risk = self.batch_risk(w, S)
        residual = S.X @ w.flat() - S.t
        return risk, ParamVector.from_flat(w, _index_order_mean(residual[:, None] * S.X))

    # 1-D curve support for the grid-based neighborhood-sup oracle.
    def risk_curve(self, w_points: np.ndarray, S: Dataset) -> np.ndarray:
        """Empirical risk at every point of w_points (1-D quadratic only)."""
        if self.param_template.size != 1:
            raise ValueError("risk_curve only applies to the 1-D quadratic")
        w_points = np.asarray(w_points, dtype=np.float64)
        rows = 0.5 * np.square(S.X[:, :1] * w_points.ravel() - S.t[:, None])
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
