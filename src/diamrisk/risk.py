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
caller's risk array, through one params.Shifter buffer per center. The
commands draw rows only through RowRing, which fills each chunk's
Gaussians on its one worker thread: a DRM run's sampling events draw from
one ring that lasts the run, and the landscape histogram and training's
pre-training check and epoch-end estimates are each one draw of a
two-buffer ring (digested_chunks). A seed is anything default_rng takes.
"""

from __future__ import annotations

import queue
import threading
from contextlib import closing
from typing import Iterator, Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel
from .params import NormKind, ParamVector, Shifter, normal_rows, sample_sphere, scale_rows

# Rows per chunk that RowRing draws and score_chunks scores.
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


class RowRing:
    """Successive draws of r norm-gamma directions from rng, at most draws
    of them, each the r rows params.sphere_rows draws, bit for bit, at most
    _CHUNK rows U at a time. One worker thread fills chunk after chunk with
    normal_rows (one long call that releases the GIL) into depth buffers,
    ahead of the caller and on into the next draw; draw() rescales each
    chunk on the calling thread (scale_rows) and yields it.

    The worker takes each chunk index to fill from todo (None to stop) and
    puts each fill's result, None or the exception raised, on done. Chunk i
    is queued once the caller asks for the chunk after i - depth, whose
    buffer it reuses, so U holds until the caller asks for the next one.
    Only the worker touches rng, in draw order, never past the last draw. A
    draw error raises in draw() at its chunk, as in a serial draw, and
    ends the ring's use. close() stops and joins the worker; call it however
    the use ends."""

    def __init__(self, template: ParamVector, gamma: float, kind: NormKind, r: int, draws: int,
                 rng: np.random.Generator, depth: int):
        self._template, self._gamma, self._kind, self._rng = template, gamma, kind, rng
        self._starts = range(0, r, _CHUNK)
        self._sizes = [min(_CHUNK, r - start) for start in self._starts]
        self._bufs = [np.empty((min(_CHUNK, r), template.size)) for _ in range(depth)]
        self._count, self._taken = len(self._starts) * draws, 0  # chunks in all draws, chunks handed out
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._worker = threading.Thread(target=self._work, name="diamrisk-draw", daemon=True)
        self._worker.start()
        for i in range(min(depth, self._count)):
            self._todo.put(i)

    def _chunk(self, i: int) -> np.ndarray:
        return self._bufs[i % len(self._bufs)][: self._sizes[i % len(self._sizes)]]

    def _work(self) -> None:
        for i in iter(self._todo.get, None):
            try:
                chunk = self._chunk(i)
                normal_rows(self._template, self._gamma, len(chunk), self._rng, out=chunk)
                self._done.put(None)
            except BaseException as exc:  # the caller raises it, then stops the worker
                self._done.put(exc)

    def draw(self) -> Iterator[tuple[int, np.ndarray]]:
        """The next draw's r directions; yields (start, U)."""
        for start in self._starts:
            i = self._taken
            error = self._done.get()
            if error is not None:
                raise error
            yield start, scale_rows(self._template, self._gamma, self._kind, self._chunk(i))
            self._taken = i + 1
            if i + len(self._bufs) < self._count:
                self._todo.put(i + len(self._bufs))  # into the buffer chunk i held

    def close(self) -> None:
        self._todo.put(None)
        self._worker.join()


def digested_chunks(
    template: ParamVector, gamma: float, kind: NormKind, r: int, rng
) -> Iterator[tuple[int, np.ndarray]]:
    """The r directions params.sphere_rows draws from rng (a seed), at most
    _CHUNK rows U at a time; yields (start, U). One draw of a two-buffer
    RowRing, whose worker fills one chunk ahead of the caller and is joined
    however the iteration ends: exhausted, raising, or closed (or dropped)."""
    with closing(RowRing(template, gamma, kind, r, 1, np.random.default_rng(rng), 2)) as ring:
        yield from ring.draw()


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
