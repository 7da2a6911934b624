"""Loss models: empirical risk and its gradient over a Dataset.

Includes two 1-D analytic losses whose true risk is identically zero (a
piecewise-linear "tent" with a steep slope, and a reciprocal loss that is not
even Lipschitz), plus a convex quadratic fixture. Both analytic losses make
plain empirical-risk minimization misbehave while the worst-case-neighborhood
risk stays well behaved, which is what the test suite exercises. A single
record is a one-row Dataset.
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


class LossModel:
    """Empirical risk with gradient, consumed by the risk and optimizer layers.

    Subclasses implement batch_risk (mean loss over the rows of a Dataset)
    and batch_grad (that mean and its gradient in w), and set
    param_template.
    """

    param_template: ParamVector

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        raise NotImplementedError

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> ParamVector:
        return ParamVector.zeros_like(self.param_template)


class ScalarLossModel(LossModel):
    """1-D loss over a scalar parameter, stored as one shape-(1,) layer.

    eval_scalar/grad_scalar are vectorized over w. breakpoints lists the
    parameter values where the loss is non-differentiable; gradients return
    the right-hand derivative there. label_sufficient marks losses that
    depend on a row only through its label, which lets risk curves group
    rows by label.
    """

    breakpoints: tuple[float, ...] = ()
    label_sufficient: bool = True

    def __init__(self):
        self.param_template = ParamVector([("w", np.zeros(1))])

    def eval_scalar(self, w, label: int):
        raise NotImplementedError

    def grad_scalar(self, w, label: int):
        raise NotImplementedError

    def wrap(self, x: float) -> ParamVector:
        return ParamVector([("w", np.array([float(x)]))])

    @staticmethod
    def unwrap(w) -> float:
        if isinstance(w, ParamVector):
            return float(w.flat()[0])
        return float(w)

    def _per_row(self, fn, w, S: Dataset) -> np.ndarray:
        """fn at scalar w for each row's label, one call per distinct label."""
        labels, inverse = np.unique(S.y, return_inverse=True)
        x = self.unwrap(w)
        return np.array([float(fn(x, int(lab))) for lab in labels])[inverse]

    def batch_risk(self, w, S: Dataset) -> float:
        return float(_index_order_mean(self._per_row(self.eval_scalar, w, S)))

    def batch_grad(self, w, S: Dataset) -> tuple[float, ParamVector]:
        grad = _index_order_mean(self._per_row(self.grad_scalar, w, S))
        return self.batch_risk(w, S), self.wrap(float(grad))

    def true_risk(self, w) -> float:
        raise NotImplementedError

    def true_risk_curve(self, w_points: np.ndarray) -> np.ndarray:
        w_points = np.asarray(w_points, dtype=np.float64)
        return np.array([self.true_risk(float(x)) for x in w_points.ravel()]).reshape(
            w_points.shape
        )

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


def _tent_shape_right_derivative(w: np.ndarray, kappa: float, gamma_loss: float) -> np.ndarray:
    slope = kappa / gamma_loss
    return np.select(
        [(w >= -gamma_loss) & (w < 0.0), (w >= 0.0) & (w < gamma_loss)],
        [np.full_like(w, slope), np.full_like(w, -slope)],
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
        super().__init__()
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

    def grad_scalar(self, w, label: int):
        return _tent_shape_right_derivative(
            np.asarray(w, dtype=float), self.kappa, self.gamma_loss
        ) * (1 - 2 * label)

    def true_risk(self, w) -> float:
        return 0.0


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

    def grad_scalar(self, w, label: int):
        # Constant (zero) for w <= 0, so the gradient there is 0.
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        mask = w > 0
        np.divide(-(1.0 - 2.0 * label), np.square(w), out=out, where=mask)
        return out

    def true_risk(self, w) -> float:
        return 0.0


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
    """Convex quadratic loss over any parameter template (convexity fixture)."""

    label_sufficient = False
    breakpoints: tuple[float, ...] = ()

    def __init__(self, template: ParamVector | None = None, dim: int = 1):
        if template is None:
            template = ParamVector([("w", np.zeros(dim))])
        self.param_template = template

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
