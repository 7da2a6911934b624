"""Loss models: empirical risk over a Dataset, and its gradient where a loop
trains the model.

Includes two 1-D analytic losses whose true risk is identically zero (a
piecewise-linear "tent" with a steep slope, and a reciprocal loss that is not
even Lipschitz). Both satisfy loss(w, 1) = -loss(w, 0), so the empirical risk
of m labels is the closed form rho_m/m * loss(w, 0). Both make plain
empirical-risk minimization misbehave while the worst-case-neighborhood risk
stays well behaved, which is what the 1-D studies measure; nothing trains
them, so they have no gradient. The MLP loss lives in mlp. A single record is
a one-row Dataset.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import Dataset
from .params import ParamVector


def rho_m(labels: Sequence[int]) -> int:
    """Number of zero labels minus number of one labels.

    Every label must compare equal to 0 or 1, of any dtype (0.0 and True
    count); otherwise ValueError names the first one that does not."""
    labels = np.asarray(labels)
    zeros = np.count_nonzero(labels == 0)
    ones = np.count_nonzero(labels == 1)
    if zeros + ones != labels.size:
        bad = labels[~((labels == 0) | (labels == 1))]
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    return int(zeros - ones)


class LossModel:
    """Empirical risk, consumed by the risk and optimizer layers.

    Subclasses implement batch_risk (mean loss over the rows of a Dataset)
    and, if a loop trains them, batch_grad (that mean, bit for bit, and its
    gradient in w: the loops read a step's risk from it).
    """

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        raise NotImplementedError

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        raise NotImplementedError


class ScalarLossModel(LossModel):
    """1-D loss over a scalar parameter, stored as one shape-(1,) layer.

    The loss depends on a row only through its label, and subclasses keep
    the contract eval_scalar(w, 1) == -eval_scalar(w, 0) bit for bit, so the
    empirical risk of a sample is rho_m/m * eval_scalar(w, 0); eval_scalar is
    vectorized over w. breakpoints lists the parameter values where the loss
    is not differentiable.
    """

    breakpoints: tuple[float, ...] = ()

    def eval_scalar(self, w, label: int):
        raise NotImplementedError

    def wrap(self, x: float) -> ParamVector:
        return ParamVector([("w", np.array([float(x)]))])

    def risk_curve(self, w_points: np.ndarray, S: Dataset) -> np.ndarray:
        """Empirical risk at every point of w_points: rho_m/m times label 0's
        loss."""
        if len(S) == 0:
            raise ValueError("empty sample")
        return rho_m(S.y) / len(S) * self.eval_scalar(np.asarray(w_points, dtype=np.float64), 0)

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
    values make the empirical risk landscape arbitrarily sharp around 0. It
    must be finite: an infinite slope makes the loss nan at 0.
    """

    def __init__(self, kappa: float = 2.0, gamma_loss: float = 0.5):
        if not kappa > 1:
            raise ValueError(f"kappa must be > 1, got {kappa}")
        if not 0 < gamma_loss < 1:
            raise ValueError(f"gamma_loss must be in (0, 1), got {gamma_loss}")
        if not math.isfinite(kappa / gamma_loss):
            raise ValueError(f"the slope kappa / gamma_loss = {kappa} / {gamma_loss} is not finite")
        self.kappa = float(kappa)
        self.gamma_loss = float(gamma_loss)
        self.breakpoints = (-self.gamma_loss, 0.0, self.gamma_loss)

    def eval_scalar(self, w, label: int):
        return _tent_shape(np.asarray(w, dtype=float), self.kappa, self.gamma_loss) * (
            1 - 2 * label
        )


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
        np.divide(1.0, w, out=out, where=w > 0)
        return out * (1 - 2 * label)
