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
a time, and score_chunks scores such chunks into the caller's risk array,
through one params.Shifter buffer per center for the whole call.
neighborhood_chunks draws and scores on the calling thread, as training
does. The landscape histogram instead takes its chunks from
digested_chunks, which hands the long, GIL-free Gaussian fill of each
chunk to one worker thread, one chunk ahead, while the caller rescales and
scores. A seed is anything np.random.default_rng takes, a Generator
included.
"""

from __future__ import annotations

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

    Chunks take turns in two buffers of _CHUNK rows; U holds until the
    caller asks for the next one. Only the worker touches rng, in draw
    order, and a draw error raises here at its chunk, as it does in
    direction_chunks. The worker is joined however the iteration ends:
    exhausted, raising, or closed (or dropped) early, as a caller whose
    own loop raises should do."""
    starts = range(0, r, _CHUNK)
    bufs = [np.empty((min(_CHUNK, r), template.size)) for _ in range(2)]
    free = threading.Semaphore(2)  # one release per buffer the worker may fill
    filled = threading.Semaphore(0)  # one release per finished fill
    stopped = threading.Event()
    errors = {}  # chunk index -> what its fill raised, for the caller to raise

    def chunk(i: int) -> np.ndarray:
        return bufs[i % 2][: min(_CHUNK, r - starts[i])]

    def work() -> None:
        for i in range(len(starts)):
            free.acquire()
            if stopped.is_set():
                return
            try:
                normal_rows(template, gamma, len(chunk(i)), rng, out=chunk(i))
            except BaseException as exc:  # the caller raises it
                errors[i] = exc
                return
            finally:
                filled.release()

    worker = threading.Thread(target=work, name="diamrisk-draw", daemon=True)
    worker.start()
    try:
        for i, start in enumerate(starts):
            filled.acquire()
            if i in errors:
                raise errors[i]
            yield start, scale_rows(template, gamma, kind, chunk(i))
            free.release()  # chunk i's buffer takes chunk i + 2
    finally:
        stopped.set()
        free.release()
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


def neighborhood_chunks(
    model: LossModel,
    centers: Sequence[ParamVector],
    gamma: float,
    kind: NormKind,
    S: Dataset,
    rng: np.random.Generator,
    out: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw r = out.shape[1] directions (direction_chunks) and score them
    around every center (score_chunks), on the calling thread."""
    return score_chunks(model, centers, direction_chunks(centers[0], gamma, kind, out.shape[1], rng), S, out)


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
