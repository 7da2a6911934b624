"""SGD loops for empirical and diametrical risk minimization.

Two loops share one skeleton:

  sgd_erm_run         plain SGD on the empirical risk (baseline).
  sgd_drm_run         fresh directions of norm gamma are drawn only on
                      sampling events (every sample_every-th iteration, or
                      with probability p) and the worst of each draw is
                      kept in a FIFO queue of capacity q; every iteration
                      the gradient is taken at the worst queued row,
                      picked by select_worst when there is a choice.

Directions are flat rows (params.sphere_rows). draw_worst is the one "worst
of r fresh directions": it scores them as they come, at most risk._CHUNK at
a time, into one risk array and keeps only a copy of the winning row. A
sampling event queues that row; the epoch-end estimate keeps its risk. The
gradient call, model.batch_grad, also supplies the risk at its point.
A DRM run's sampling events draw from one risk.RowRing that lasts the run:
its worker thread fills the perturbation stream's rows into _DEPTH chunk
buffers, on into the next event during the iterations between events,
while the calling thread rescales and scores them. The stream is one
sequence of rows however the events fall, so the run is bit for bit that
of drawing each event on the calling thread. The ring is closed, and its
worker joined, however the run ends; an ERM run starts no thread.

simple_sgd_drm_run is sgd_drm_run with q = 1 and sampling every iteration,
bitwise equal to repeated simple_sgd_drm_step calls: one step on its own,
with one vector per direction and one np.argmax over all r, the reference
it is checked against. gamma = 0 reduces DRM to the ERM baseline bitwise.

Both loops start from the caller's w0. Their randomness is split into
streams of the config seed, tagged in the streams module: batching,
perturbations, the sampling coin and the epoch-end evaluation directions.
The sampled diametrical estimate is scored at epoch 0, every
_EVAL_EVERY-th epoch and the last one. Each scored epoch redraws the r
evaluation directions from one key (draw_worst on the full train set), so
in both loops every estimate is the max risk over one shared set, and no
more of it than one chunk is ever held. The set is drawn once before
training, only to check that it is finite.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import streams
from .analysis import csv_text
from .data import Dataset
from .losses import LossModel
from .params import Box, NonFiniteError, NormKind, ParamVector
from .params import Shifter, axpy, sample_sphere
from .risk import RowRing, direction_chunks, neighborhood_risks, score_chunks

# Chunk buffers of the training ring, so chunks its worker may fill ahead. Measured:
# 2 gains no wall time, and more than 3 only adds memory.
_DEPTH = 3

# The epoch-end estimate is scored at epoch 0, at each epoch e with
# (e + 1) % _EVAL_EVERY == 0, and at the last epoch.
_EVAL_EVERY = 10


class DivergenceError(RuntimeError):
    """Training produced a non-finite batch risk, direction or parameter
    vector. batch_risk is None when no batch risk was computed yet."""

    def __init__(self, iteration: int, epoch: int, lr: float, batch_risk: Optional[float], reason):
        risk = "" if batch_risk is None else f", batch risk {batch_risk!r}"
        super().__init__(
            f"training diverged at iteration {iteration} (epoch {epoch}, lr {lr!r}{risk}): {reason}"
        )
        self.iteration, self.epoch, self.lr, self.batch_risk = iteration, epoch, lr, batch_risk


@dataclass(frozen=True)
class DrmConfig:
    """Hyperparameters for the DRM/ERM training loops, checked once when the
    config is built: a bad value raises ValueError.

    Sampling events come every sample_every-th iteration, or, when p is set,
    a coin of probability p decides for each iteration. lr_schedule is
    piecewise constant: a list of (until_iteration, rate) pairs, each rate
    applying to iterations below its bound; the schedule must cover [0, T].
    """

    gamma: float
    T: int
    batch_size: int
    lr_schedule: tuple[tuple[int, float], ...]
    r: int = 20
    q: int = 1
    sample_every: int = 5
    p: Optional[float] = None
    norm_kind: NormKind = NormKind.LAYERWISE_FROBENIUS
    feasible: Box = Box()
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        for name in ("T", "batch_size", "r", "q", "sample_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be a probability in [0, 1] or None, got {self.p!r}")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must be nonempty")
        prev = 0
        for until, rate in self.lr_schedule:
            if until <= prev:
                raise ValueError("lr_schedule bounds must be strictly increasing")
            if not 0 < rate < math.inf:
                raise ValueError(f"learning rates must be finite and > 0, got {rate!r}")
            prev = until
        if prev < self.T:
            raise ValueError(f"lr_schedule covers [0, {prev}) but T = {self.T}")

    def lr_at(self, t: int) -> float:
        for until, rate in self.lr_schedule:
            if t < until:
                return rate
        raise ValueError(f"iteration {t} outside lr_schedule")


def constant_then_drop_schedule(T: int, lr: float, final_lr: float,
                                final_fraction: float) -> tuple[tuple[int, float], ...]:
    """lr until the final fraction of training, then final_lr."""
    drop_at = max(1, int(round(T * (1.0 - final_fraction))))
    if drop_at >= T:
        return ((T, lr),)
    return ((drop_at, lr), (T, final_lr))


class TraceRow(NamedTuple):
    """One row of trace_*.csv; the field names are its header. An iteration
    row's event is "sample" on a sampling event and "" otherwise; an epoch
    row's event is "epoch" and its iter the epoch's last iteration. A cell
    that does not apply is None and is written blank."""

    iter: int
    epoch: int
    event: str
    lr: Optional[float] = None
    batch_risk: Optional[float] = None
    perturbed_batch_risk: Optional[float] = None
    train_risk: Optional[float] = None
    test_acc: Optional[float] = None
    diam_risk_est: Optional[float] = None


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)  # in the order the loop ran them
    batch_digest: str = ""

    @property
    def epochs(self) -> list[TraceRow]:
        return [row for row in self.rows if row.event == "epoch"]

    def to_csv_text(self) -> str:
        return csv_text({}, ",".join(TraceRow._fields), self.rows)


def make_batch_indices(m: int, batch_size: int, epoch_seed) -> list[np.ndarray]:
    """Uniform shuffle of range(m) cut into consecutive chunks; the last short
    chunk is kept. Deterministic in epoch_seed."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(epoch_seed).permutation(m)
    return [order[i : i + batch_size] for i in range(0, m, batch_size)]


def select_worst(
    model: LossModel, w: ParamVector, batch: Dataset, candidates: Sequence[np.ndarray]
) -> tuple[int, np.ndarray, float]:
    """Candidate row maximizing batch risk at w + u, as np.argmax picks it:
    ties go to the lowest index and the first NaN wins."""
    if len(candidates) == 0:
        raise ValueError("empty candidate set")
    values = neighborhood_risks(model, w, candidates, batch)
    best_index = int(np.argmax(values))
    return best_index, candidates[best_index], float(values[best_index])


def draw_worst(
    model: LossModel, w: ParamVector, batch: Dataset, r: int, chunks: Iterator[tuple[int, np.ndarray]]
) -> tuple[int, np.ndarray, float]:
    """The worst on batch of the r fresh directions that chunks yields as
    (start, U) (risk.direction_chunks, or a draw of risk.RowRing): the
    (index, row, value) that np.argmax over all r risks picks. Each chunk is
    scored (risk.score_chunks) as it comes; all r risks are kept, but of the
    rows only a copy of the winner so far."""
    if r < 1:
        raise ValueError("r must be >= 1")
    values = np.empty((1, r))
    for start, U in score_chunks(model, [w], chunks, batch, values):
        i = int(np.argmax(values[0, : start + len(U)]))
        if i >= start:
            best = (i, U[i - start].copy())
    return best[0], best[1], float(values[0, best[0]])


def simple_sgd_drm_step(
    model: LossModel,
    w: ParamVector,
    batch: Dataset,
    cfg: DrmConfig,
    rng: np.random.Generator,
    t: int = 0,
) -> ParamVector:
    """One step of the simple algorithm: draw r directions of norm gamma,
    pick the worst on this batch, step from the perturbed point, project.
    It builds one vector per direction (sample_sphere, axpy) and takes one
    np.argmax over all r risks: an oracle independent of the loops' chunked
    row path."""
    candidates = [sample_sphere(w, cfg.gamma, cfg.norm_kind, rng) for _ in range(cfg.r)]
    values = [model.batch_risk(axpy(w, 1.0, u), batch) for u in candidates]
    u_star = candidates[int(np.argmax(values))]
    _, grad = model.batch_grad(axpy(w, 1.0, u_star), batch)
    return cfg.feasible.project(axpy(w, -cfg.lr_at(t), grad))


def _next_event(cfg: DrmConfig, t: int, rng_coin: np.random.Generator) -> bool:
    """Whether iteration t is a sampling event. t = 0 always is (the queue
    starts empty). The probabilistic coin is flipped at every t, t = 0
    included, so the coin stream advances identically across algorithm
    variants."""
    if cfg.p is None:
        return t % cfg.sample_every == 0
    flip = rng_coin.random() < cfg.p
    return True if t == 0 else flip


def _run_loop(
    model: LossModel,
    data: Dataset,
    test: Optional[Dataset],
    cfg: DrmConfig,
    algorithm: str,
    w0: ParamVector,
) -> tuple[ParamVector, RunTrace]:
    if algorithm not in ("erm", "drm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if len(data) == 0:
        raise ValueError("empty training data")

    rng_coin = np.random.default_rng([cfg.seed, streams.COIN])
    w = cfg.feasible.project(w0)
    eval_key = [cfg.seed, streams.EVAL]  # each scored epoch redraws the set from it
    try:  # draw the set once, only to check it
        for _ in direction_chunks(w, cfg.gamma, cfg.norm_kind, cfg.r, np.random.default_rng(eval_key)):
            pass
    except NonFiniteError as exc:
        raise DivergenceError(0, 0, cfg.lr_at(0), None, f"evaluation directions: {exc}") from exc

    measure_acc = getattr(model, "accuracy", None)
    queue = deque(maxlen=cfg.q)  # past worst directions, oldest evicted first
    trace = RunTrace()
    digest = hashlib.sha256()
    m = len(data)
    t = 0
    epoch = 0
    # A DRM run's sampling events, at most T, draw from one ring; closing joins its worker on any exit.
    rng_perturb = np.random.default_rng([cfg.seed, streams.PERTURB])
    drm = algorithm == "drm"
    perturb = RowRing(w, cfg.gamma, cfg.norm_kind, cfg.r, cfg.T, rng_perturb, _DEPTH) if drm else None
    with closing(perturb) if drm else nullcontext():
        while t < cfg.T:
            # Overflow shows as a non-finite risk or parameter, which raises DivergenceError.
            with np.errstate(over="ignore", invalid="ignore"):
                for idx in make_batch_indices(m, cfg.batch_size, [cfg.seed, streams.BATCH, epoch]):
                    if t >= cfg.T:
                        break
                    digest.update(idx.astype(np.int64).tobytes())
                    batch = data[idx]
                    lr = cfg.lr_at(t)
                    event = _next_event(cfg, t, rng_coin)
                    batch_risk = model.batch_risk(w, batch) if drm else None
                    try:
                        point, what = w, "batch risk"
                        if drm:
                            if not math.isfinite(batch_risk):
                                raise NonFiniteError("non-finite batch risk")
                            if event:
                                queue.append(draw_worst(model, w, batch, cfg.r, perturb.draw())[1])
                            # A one-row queue leaves nothing to choose.
                            v_star = select_worst(model, w, batch, queue)[1] if len(queue) > 1 else queue[0]
                            point, what = next(Shifter(w).points((v_star,))), "perturbed batch risk"
                        try:
                            point_risk, grad = model.batch_grad(point, batch)
                        except NonFiniteError as exc:  # a non-finite gradient, raised once its risk is checked
                            point_risk, grad = model.batch_risk(point, batch), exc
                        if not drm:
                            batch_risk = point_risk
                        if not math.isfinite(point_risk):
                            raise NonFiniteError(f"non-finite {what}")
                        if isinstance(grad, NonFiniteError):
                            raise grad
                        w = cfg.feasible.project(axpy(w, -lr, grad))
                    except NonFiniteError as exc:
                        raise DivergenceError(t, epoch, lr, batch_risk, exc) from exc
                    trace.rows.append(TraceRow(t, epoch, "sample" if event else "", lr, batch_risk, point_risk))
                    t += 1

                train_risk = model.batch_risk(w, data)
                test_acc = measure_acc(w, test) if (measure_acc and test is not None and len(test)) else None
                diam = None
                if epoch == 0 or (epoch + 1) % _EVAL_EVERY == 0 or t >= cfg.T:
                    rng_eval = np.random.default_rng(eval_key)
                    chunks = direction_chunks(w, cfg.gamma, cfg.norm_kind, cfg.r, rng_eval)
                    diam = draw_worst(model, w, data, cfg.r, chunks)[2]
            for name, value in (("train risk", train_risk), ("diametrical risk estimate", diam)):
                if value is not None and not math.isfinite(value):
                    reason = f"non-finite {name} {value!r} at the end of the epoch"
                    raise DivergenceError(t - 1, epoch, lr, batch_risk, reason)
            trace.rows.append(TraceRow(t - 1, epoch, "epoch", train_risk=train_risk, test_acc=test_acc,
                                       diam_risk_est=diam))
            epoch += 1

    trace.batch_digest = digest.hexdigest()
    return w, trace


def sgd_erm_run(model, data, test, cfg: DrmConfig, w0: ParamVector) -> tuple[ParamVector, RunTrace]:
    """Plain SGD on the empirical risk; the gradient is taken at w itself."""
    return _run_loop(model, data, test, cfg, "erm", w0)


def simple_sgd_drm_run(model, data, test, cfg: DrmConfig, w0: ParamVector) -> tuple[ParamVector, RunTrace]:
    """Simple DRM loop: the queued loop with q = 1 and fresh perturbations
    every iteration, whatever cfg.q, cfg.sample_every and cfg.p say."""
    return _run_loop(model, data, test, replace(cfg, q=1, sample_every=1, p=None), "drm", w0)


def sgd_drm_run(model, data, test, cfg: DrmConfig, w0: ParamVector) -> tuple[ParamVector, RunTrace]:
    """Queued DRM loop: sampling events per cfg.sample_every or cfg.p, reuse
    queue of capacity q."""
    return _run_loop(model, data, test, cfg, "drm", w0)
