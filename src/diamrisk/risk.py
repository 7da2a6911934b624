"""Worst-case-neighborhood (diametrical) risk.

The diametrical risk of w at radius gamma is the supremum of the empirical
risk over all parameter perturbations of norm at most gamma. The empirical
risk itself is the loss model's: model.batch_risk at one parameter vector,
and model.risk_curve along a 1-D grid. Two estimators return the estimate
as a float: an exact-by-construction 1-D grid oracle (the grid holds every
breakpoint of piecewise losses, so piecewise-linear suprema are exact), and
a sampled outer approximation that maximizes over random directions of norm
exactly gamma, as training draws them, and never exceeds the supremum.

Directions are rows of the flat coordinate order. neighborhood_risks scores
a stack of them; score_chunks scores chunks of at most _CHUNK rows into the
caller's risk array, through one params.Shifter buffer per center. Training
draws its chunks on the calling thread (direction_chunks); the landscape
histogram draws the same chunks with each Gaussian fill on a worker thread
(digested_chunks). A seed is anything np.random.default_rng takes.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterator, Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel
from .params import NormKind, ParamVector, Shifter, normal_rows, sample_sphere, scale_rows, sphere_rows

# Rows per chunk that direction_chunks and digested_chunks draw and score_chunks scores.
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


def neighborhood_risks(model: LossModel, w: Union[ParamVector, Shifter], U, S: Dataset) -> np.ndarray:
    """Empirical risk at w + u for each row u of U (a (k, n) array or a
    sequence of rows), in order, through one reused buffer: that of w when
    it is a params.Shifter, else a fresh one. Callers take np.argmax, which
    breaks ties to the lowest index."""
    shift = w if isinstance(w, Shifter) else Shifter(w)
    values = [model.batch_risk(point, S) for point in shift.points(U)]
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


def digested_chunks(
    template: ParamVector, gamma: float, kind: NormKind, r: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """The r directions of direction_chunks, bit for bit, at most _CHUNK
    rows U at a time; yields (start, U). One worker thread fills each chunk
    with normal_rows (one long call that releases the GIL), one chunk ahead
    of the caller, who rescales it here (scale_rows) and then holds it.

    The worker takes the index of each chunk to fill from todo, and None to
    stop; done takes each fill's result, None or the exception it raised.
    Fill i + 1 is queued once chunk i is taken, so chunks take turns in two
    buffers of _CHUNK rows, and U holds until the caller asks for the next
    one. Only the worker touches rng, in draw order; a draw error raises
    here at its chunk, as in direction_chunks. The worker is joined however
    the iteration ends: exhausted, raising, or closed (or dropped) early."""
    starts = range(0, r, _CHUNK)
    bufs = [np.empty((min(_CHUNK, r), template.size)) for _ in range(2)]
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def chunk(i: int) -> np.ndarray:
        return bufs[i % 2][: min(_CHUNK, r - starts[i])]

    def work() -> None:
        for i in iter(todo.get, None):
            try:
                normal_rows(template, gamma, len(chunk(i)), rng, out=chunk(i))
                done.put(None)
            except BaseException as exc:  # the caller raises it, then stops the worker
                done.put(exc)

    worker = threading.Thread(target=work, name="diamrisk-draw", daemon=True)
    worker.start()
    try:
        todo.put(0 if starts else None)  # an empty draw fills nothing
        for i, start in enumerate(starts):
            error = done.get()
            if error is not None:
                raise error
            if i + 1 < len(starts):
                todo.put(i + 1)  # into the buffer chunk i - 1 held
            yield start, scale_rows(template, gamma, kind, chunk(i))
    finally:
        todo.put(None)
        worker.join()


def score_chunks(
    model: LossModel,
    centers: Sequence[ParamVector],
    chunks: Iterator[tuple[int, np.ndarray]],
    S: Dataset,
    out: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """For each (start, U) of chunks, write the risks at w + u into
    out[:, start:start + len(U)], one row per center, then yield (start, U).
    Each center's points go through one buffer for the whole call."""
    shifts = [Shifter(w) for w in centers]
    for start, U in chunks:
        for shift, row in zip(shifts, out):
            row[start : start + len(U)] = neighborhood_risks(model, shift, U, S)
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
