"""Worst-case-neighborhood (diametrical) risk.

The diametrical risk of w at radius gamma is the supremum of the empirical
risk over all parameter perturbations of norm at most gamma. The empirical
risk itself is the loss model's: model.batch_risk at one parameter vector,
and model.risk_curve along a 1-D grid. Two estimators
are provided, each returning the estimate as a float: an exact-by-construction
1-D grid oracle (the grid is augmented with every breakpoint of piecewise
losses, so piecewise-linear suprema are exact), and a sampled outer
approximation that maximizes over random directions of norm exactly gamma,
matching what the training algorithms do. The sampled estimate never exceeds
the true supremum.

Directions are rows of the flat coordinate order. neighborhood_risks scores
a stack of them; direction_chunks draws r of them at most _CHUNK rows at
a time, and neighborhood_chunks scores those chunks into the caller's risk
array. A seed is anything np.random.default_rng takes, a Generator included.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel
from .params import NormKind, ParamVector, sample_sphere, shifted, sphere_rows

# Rows per chunk: direction_chunks draws, and neighborhood_chunks scores, this many at a time.
_CHUNK = 4


def window_grid(model, lo: float, hi: float, gamma: float, grid_points: int) -> np.ndarray:
    """Uniform grid on [lo, hi] augmented with every loss breakpoint and every
    breakpoint shifted by +-gamma that lands inside the window; ValueError
    when the width hi - lo overflows."""
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if not np.isfinite(hi - lo):
        raise ValueError(f"the window [{lo}, {hi}] is wider than the largest float")
    pts = [np.linspace(lo, hi, grid_points)]
    extra = []
    for b in getattr(model, "breakpoints", ()):
        for x in (b, b - gamma, b + gamma):
            if lo <= x <= hi:
                extra.append(x)
    if extra:
        pts.append(np.array(extra, dtype=np.float64))
    return np.unique(np.concatenate(pts))


def neighborhood_risks(model: LossModel, w: ParamVector, U, S: Dataset) -> np.ndarray:
    """Empirical risk at w + u for each row u of U (a (k, n) array or a
    sequence of rows), in order, through one reused buffer (params.shifted).
    Callers take np.argmax, which breaks ties to the lowest index."""
    values = [model.batch_risk(point, S) for point in shifted(w, U)]
    return np.array(values, dtype=np.float64)


def direction_chunks(
    template: ParamVector, gamma: float, kind: NormKind, r: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """The r norm-gamma directions that sphere_rows draws from rng, in draw
    order, at most _CHUNK rows U at a time; yields (start, U). All chunks
    share one buffer: U holds only until the next step."""
    buf = np.empty((min(_CHUNK, r), template.size))
    for start in range(0, r, _CHUNK):
        yield start, sphere_rows(template, gamma, kind, min(_CHUNK, r - start), rng, out=buf)


def neighborhood_chunks(
    model: LossModel,
    centers: Sequence[ParamVector],
    gamma: float,
    kind: NormKind,
    S: Dataset,
    rng: np.random.Generator,
    out: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw r = out.shape[1] directions (direction_chunks); write the risks
    at w + u of each chunk U into out[:, start:start + len(U)], one row per
    center, then yield (start, U)."""
    for start, U in direction_chunks(centers[0], gamma, kind, out.shape[1], rng):
        for w, row in zip(centers, out):
            row[start : start + len(U)] = neighborhood_risks(model, w, U, S)
        yield start, U


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
        return model.batch_risk(model.wrap(w), S)
    # The centre plus uniform points and in-range breakpoints of the interval.
    pts = np.union1d(window_grid(model, w - gamma, w + gamma, 0.0, grid_points), [w])
    return float(model.risk_curve(pts, S).max())


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
    rng = np.random.default_rng(rng)
    directions = [sample_sphere(w, gamma, kind, rng) for _ in range(r)]
    return float(neighborhood_risks(model, w, [u.flat() for u in directions], S).max())
