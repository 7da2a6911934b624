"""Pointwise loss functions and the model interface they plug into.

Includes two 1-D analytic losses whose true risk is identically zero (a
piecewise-linear "tent" with a steep slope, and a reciprocal loss that is not
even Lipschitz), plus a convex quadratic fixture. Both analytic losses make
plain empirical-risk minimization misbehave while the worst-case-neighborhood
risk stays well behaved, which is what the test suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .params import ParamVector


@dataclass
class Sample:
    """One data record: feature vector plus integer class label.

    features may be empty for the 1-D analytic losses, where the label alone
    carries the randomness. target is a real-valued regression target used
    only by the quadratic fixture.
    """

    features: np.ndarray = field(default_factory=lambda: np.empty(0))
    label: int = 0
    target: float = 0.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.label = int(self.label)
        self.target = float(self.target)


def rho_m(labels: Sequence[int]) -> int:
    """Number of zero labels minus number of one labels."""
    total = 0
    for lab in labels:
        if lab == 0:
            total += 1
        elif lab == 1:
            total -= 1
        else:
            raise ValueError(f"labels must be 0 or 1, got {lab}")
    return total


class LossModel:
    """Pointwise loss with gradient, consumed by the risk and optimizer layers.

    Subclasses implement eval/grad and set param_template. true_risk is the
    analytic expected loss when known, else None. batch_risk/batch_grad
    default to means in ascending sample-index order; vectorized models may
    override batch_risk for speed.
    """

    param_template: ParamVector
    true_risk: Optional[Callable[..., float]] = None

    def eval(self, w: ParamVector, z: Sample) -> float:
        raise NotImplementedError

    def grad(self, w: ParamVector, z: Sample) -> ParamVector:
        raise NotImplementedError

    def batch_risk(self, w: ParamVector, samples: Sequence[Sample]) -> float:
        if len(samples) == 0:
            raise ValueError("empty batch")
        total = 0.0
        for z in samples:
            total += self.eval(w, z)
        return total / len(samples)

    def batch_grad(self, w: ParamVector, samples: Sequence[Sample]) -> tuple[float, ParamVector]:
        if len(samples) == 0:
            raise ValueError("empty batch")
        total = 0.0
        acc = [np.zeros(a.shape) for a in self.param_template.arrays]
        for z in samples:
            total += self.eval(w, z)
            g = self.grad(w, z)
            for buf, layer in zip(acc, g.arrays):
                buf += layer
        k = len(samples)
        grad = ParamVector(
            (n, buf / k) for n, buf in zip(self.param_template.names, acc)
        )
        return total / k, grad

    def init_params(self, rng: np.random.Generator) -> ParamVector:
        return ParamVector.zeros_like(self.param_template)


class ScalarLossModel(LossModel):
    """1-D loss over a scalar parameter, stored as one shape-(1,) layer.

    eval_scalar/grad_scalar are vectorized over w. breakpoints lists the
    parameter values where the loss is non-differentiable; gradients return
    the right-hand derivative there. label_sufficient marks losses that
    depend on z only through the label, which lets risk curves group samples
    by label.
    """

    breakpoints: tuple[float, ...] = ()
    label_values: tuple[int, ...] = (0, 1)
    label_sufficient: bool = True

    def __init__(self):
        self.param_template = ParamVector([("w", np.zeros(1))])

    def eval_scalar(self, w, label: int):
        raise NotImplementedError

    def grad_scalar(self, w, label: int):
        raise NotImplementedError

    def eval_curve(self, w_points: np.ndarray, z: Sample) -> np.ndarray:
        return self.eval_scalar(w_points, z.label)

    def wrap(self, x: float) -> ParamVector:
        return ParamVector([("w", np.array([float(x)]))])

    @staticmethod
    def unwrap(w) -> float:
        if isinstance(w, ParamVector):
            return float(w.flat()[0])
        return float(w)

    def eval(self, w, z: Sample) -> float:
        return float(self.eval_scalar(self.unwrap(w), z.label))

    def grad(self, w, z: Sample) -> ParamVector:
        return self.wrap(float(self.grad_scalar(self.unwrap(w), z.label)))

    def true_risk(self, w) -> float:
        raise NotImplementedError

    def true_risk_curve(self, w_points: np.ndarray) -> np.ndarray:
        w_points = np.asarray(w_points, dtype=np.float64)
        return np.array([self.true_risk(float(x)) for x in w_points.ravel()]).reshape(
            w_points.shape
        )

    def sample_z(self, rng: np.random.Generator) -> Sample:
        return Sample(label=int(rng.integers(0, 2)))

    def sample_labels(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m labels drawn equiprobably from {0, 1}."""
        return rng.integers(0, 2, size=m)


def tent_eval(w: float, z: int, kappa: float, gamma_loss: float) -> float:
    """Tent loss: piecewise linear on [-gamma_loss, gamma_loss), zero outside.

        kappa*w/gamma_loss + kappa   if w in [-gamma_loss, 0), z = 0
       -kappa*w/gamma_loss - kappa   if w in [-gamma_loss, 0), z = 1
       -kappa*w/gamma_loss + kappa   if w in [0, gamma_loss),  z = 0
        kappa*w/gamma_loss - kappa   if w in [0, gamma_loss),  z = 1
        0                            otherwise
    """
    return float(_tent_shape(np.asarray(w, dtype=float), kappa, gamma_loss) * (1 - 2 * z))


def tent_true_risk(w: float) -> float:
    """Expected tent loss under equiprobable z in {0, 1}: zero for every w."""
    return 0.0


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
    """Steep piecewise-linear loss with zero expected value everywhere.

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
        return tent_true_risk(w)


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


def quadratic_eval(w: ParamVector, z: Sample) -> float:
    """Half squared residual 0.5 * (<a, w> - b)^2 with a = z.features, b = z.target."""
    flat = w.flat()
    if z.features.shape != flat.shape:
        raise ValueError(
            f"feature dimension {z.features.shape} does not match parameters {flat.shape}"
        )
    residual = float(np.dot(z.features, flat) - z.target)
    return 0.5 * residual * residual


class QuadraticLoss(LossModel):
    """Convex quadratic loss over any parameter template (convexity fixture)."""

    true_risk = None
    label_sufficient = False
    breakpoints: tuple[float, ...] = ()

    def __init__(self, template: ParamVector | None = None, dim: int = 1):
        if template is None:
            template = ParamVector([("w", np.zeros(dim))])
        self.param_template = template

    def eval(self, w: ParamVector, z: Sample) -> float:
        return quadratic_eval(w, z)

    def grad(self, w: ParamVector, z: Sample) -> ParamVector:
        flat = w.flat()
        if z.features.shape != flat.shape:
            raise ValueError("feature dimension does not match parameters")
        residual = float(np.dot(z.features, flat) - z.target)
        return ParamVector.from_flat(w, residual * z.features)

    # 1-D curve support for the grid-based neighborhood-sup oracle.
    def eval_curve(self, w_points: np.ndarray, z: Sample) -> np.ndarray:
        if self.param_template.size != 1:
            raise ValueError("eval_curve only applies to the 1-D quadratic")
        a = float(z.features[0])
        return 0.5 * np.square(a * np.asarray(w_points, dtype=float) - z.target)

    def wrap(self, x: float) -> ParamVector:
        if self.param_template.size != 1:
            raise ValueError("wrap only applies to the 1-D quadratic")
        return ParamVector.from_flat(self.param_template, np.array([float(x)]))


def finite_diff_grad(model: LossModel, w: ParamVector, z: Sample, step: float = 1e-5) -> ParamVector:
    """Central-difference gradient of model.eval at (w, z), coordinate by coordinate."""
    flat = w.flat()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        hi = model.eval(ParamVector.from_flat(w, flat + bump), z)
        lo = model.eval(ParamVector.from_flat(w, flat - bump), z)
        out[i] = (hi - lo) / (2.0 * step)
    return ParamVector.from_flat(w, out)


def gradient_check(
    model: LossModel,
    pairs: Sequence[tuple[ParamVector, Sample]],
    step: float = 1e-5,
) -> float:
    """Worst scaled error between analytic and finite-difference gradients.

    The error is ||g - g_fd||_inf / max(1, ||g||_inf), so tiny gradients are
    compared absolutely and large ones relatively. Callers should keep the
    probe points away from declared non-differentiable parameters.
    """
    worst = 0.0
    for w, z in pairs:
        g = model.grad(w, z).flat()
        g_fd = finite_diff_grad(model, w, z, step).flat()
        denom = max(1.0, float(np.max(np.abs(g))) if g.size else 0.0)
        err = float(np.max(np.abs(g - g_fd))) / denom if g.size else 0.0
        worst = max(worst, err)
    return worst
