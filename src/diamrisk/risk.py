"""Empirical and worst-case-neighborhood (diametrical) risk.

The diametrical risk of w at radius gamma is the supremum of the empirical
risk over all parameter perturbations of norm at most gamma. Two estimators
are provided, each returning the estimate as a float: an exact-by-construction
1-D grid oracle (the grid is augmented with every breakpoint of piecewise
losses, so piecewise-linear suprema are exact), and a sampled outer
approximation that maximizes over random directions of norm exactly gamma,
matching what the training algorithms do. The sampled estimate never exceeds
the true supremum.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel
from .params import NormKind, ParamVector, axpy, sample_sphere


def empirical_risk(model: LossModel, w, S: Dataset) -> float:
    """Mean loss over the rows of S."""
    if len(S) == 0:
        raise ValueError("empty sample")
    return model.batch_risk(w, S)


def empirical_risk_curve(model, w_points: np.ndarray, S: Dataset) -> np.ndarray:
    """Empirical risk of a 1-D loss evaluated at every point of w_points."""
    return model.risk_curve(w_points, S)


def window_grid(model, lo: float, hi: float, gamma: float, grid_points: int) -> np.ndarray:
    """Uniform grid on [lo, hi] augmented with every loss breakpoint and every
    breakpoint shifted by +-gamma that lands inside the window."""
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    pts = [np.linspace(lo, hi, grid_points)]
    extra = []
    for b in getattr(model, "breakpoints", ()):
        for x in (b, b - gamma, b + gamma):
            if lo <= x <= hi:
                extra.append(x)
    if extra:
        pts.append(np.array(extra, dtype=np.float64))
    return np.unique(np.concatenate(pts))


def neighborhood_risks(
    model: LossModel, w: ParamVector, directions: Sequence[ParamVector], S: Dataset
) -> np.ndarray:
    """Empirical risk at w + u for each direction u, in order. Callers take
    np.argmax, which breaks ties to the lowest index."""
    values = [model.batch_risk(axpy(w, 1.0, u), S) for u in directions]
    return np.array(values, dtype=np.float64)


def diametrical_risk_grid_1d(
    model, w: float, gamma: float, S: Dataset, grid_points: int = 4097
) -> float:
    """Worst empirical risk over the radius-gamma interval around scalar w.

    Exact for piecewise-linear losses because every breakpoint in range is a
    grid point; a lower bound on the supremum otherwise. gamma = 0 returns
    the empirical risk itself, exactly.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    w = float(w)
    if gamma == 0.0:
        return empirical_risk(model, model.wrap(w), S)
    # The centre plus uniform points and in-range breakpoints of the interval.
    pts = np.union1d(window_grid(model, w - gamma, w + gamma, 0.0, grid_points), [w])
    values = empirical_risk_curve(model, pts, S)
    return float(values.max())


def diametrical_risk_sampled(
    model: LossModel,
    w: ParamVector,
    gamma: float,
    kind: NormKind,
    r: int,
    S: Dataset,
    rng: Union[np.random.Generator, int],
) -> float:
    """Max empirical risk over r random directions of norm exactly gamma.
    Deterministic given the seed."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    directions = [sample_sphere(w, gamma, kind, rng) for _ in range(r)]
    return float(neighborhood_risks(model, w, directions, S).max())
