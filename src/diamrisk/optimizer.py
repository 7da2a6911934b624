"""SGD loops for empirical and diametrical risk minimization.

Two loops share one skeleton:

  sgd_erm_run         plain SGD on the empirical risk (baseline).
  sgd_drm_run         fresh directions of norm gamma are drawn only on
                      sampling events (every k-th iteration or with
                      probability p) and the worst of each draw is kept in a
                      FIFO queue of capacity q; every iteration the gradient
                      is taken at the worst queued perturbation.

Directions are flat rows (params.sphere_rows). A sampling event draws and
scores its r candidates in chunks of at most risk._CHUNK rows and keeps
their r risks but only the winning row (draw_worst); the queue holds copies
of winning rows.
Vectors are built only for iterates, gradients and gradient points.

simple_sgd_drm_run is sgd_drm_run with q = 1 and sampling every iteration.
simple_sgd_drm_step, one such step on its own with one vector per direction
and one np.argmax over all r, is the reference it is checked against.

Both loops start from the caller's w0. Their randomness is split into
independent streams derived from the config seed: batching, perturbations,
the sampling coin and the epoch-end evaluation directions. Stream tag 0 is
left to the caller's draw of w0. The r evaluation directions are drawn once
per run and kept as one (r, n) array, so every epoch's sampled diametrical
estimate, in both loops, is the max risk over one shared set. Runs that
should coincide do so bitwise: gamma = 0 reduces DRM to the ERM baseline,
and q = 1 with sampling every iteration reduces the queued loop to repeated
simple steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analysis import csv_text
from .data import Dataset
from .losses import LossModel
from .params import FeasibleSet, NonFiniteError, NormKind, ParamVector, Unbounded
from .params import axpy, sample_sphere, shifted, sphere_rows
from .risk import neighborhood_chunks, neighborhood_risks

# Sub-stream tags for seed derivation; fixed so traces are reproducible.
_STREAM_BATCH = 1
_STREAM_PERTURB = 2
_STREAM_COIN = 3
_STREAM_EVAL = 4  # the r epoch-end evaluation directions, drawn once per run

TRACE_CSV_HEADER = (
    "iter,epoch,event,lr,batch_risk,perturbed_batch_risk,train_risk,test_acc,diam_risk_est"
)


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
class EveryK:
    """Deterministic sampling schedule: draw fresh perturbations when t % k == 0."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class DrmConfig:
    """Hyperparameters for the DRM/ERM training loops.

    p is either a probability in [0, 1] (a coin decides whether the next
    iteration draws fresh perturbations) or EveryK(k) for the deterministic
    every-k-th-iteration schedule. lr_schedule is piecewise constant: a list
    of (until_iteration, rate) pairs, each rate applying to iterations below
    its bound; the schedule must cover [0, T].
    """

    gamma: float
    T: int
    batch_size: int
    lr_schedule: tuple[tuple[int, float], ...]
    r: int = 20
    q: int = 1
    p: Union[float, EveryK] = EveryK(5)
    norm_kind: NormKind = NormKind.LAYERWISE_FROBENIUS
    feasible: FeasibleSet = field(default_factory=Unbounded)
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if isinstance(self.p, EveryK):
            pass
        elif isinstance(self.p, (int, float)) and 0.0 <= float(self.p) <= 1.0:
            pass
        else:
            raise ValueError(f"p must be a probability in [0, 1] or EveryK, got {self.p!r}")
        schedule = tuple(self.lr_schedule)
        if not schedule:
            raise ValueError("lr_schedule must be nonempty")
        prev = 0
        for until, rate in schedule:
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


@dataclass
class IterationRecord:
    iter: int
    epoch: int
    event: bool  # sampling event under the configured schedule
    lr: float
    batch_risk: float
    perturbed_batch_risk: float


@dataclass
class EpochRecord:
    iter: int  # last iteration of the epoch
    epoch: int
    train_risk: float
    test_acc: Optional[float]
    diam_risk_est: float


@dataclass
class RunTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)
    batch_digest: str = ""

    def to_csv_text(self) -> str:
        """Iteration and epoch rows in chronological order; a blank cell does not apply."""
        epoch_by_end = {e.iter: e for e in self.epochs}
        rows = []
        for rec in self.iterations:
            event = "sample" if rec.event else ""
            rows.append((rec.iter, rec.epoch, event, rec.lr, rec.batch_risk, rec.perturbed_batch_risk,
                         None, None, None))
            e = epoch_by_end.get(rec.iter)
            if e is not None:
                rows.append((e.iter, e.epoch, "epoch", None, None, None,
                             e.train_risk, e.test_acc, e.diam_risk_est))
        return csv_text({}, TRACE_CSV_HEADER, (["" if v is None else str(v) for v in row] for row in rows))


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
    model: LossModel,
    w: ParamVector,
    batch: Dataset,
    gamma: float,
    kind: NormKind,
    r: int,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, float]:
    """The worst on batch of r fresh norm-gamma directions drawn from rng:
    the (index, row, value) that np.argmax over all r risks picks. The
    directions are drawn and scored in chunks (risk.neighborhood_chunks);
    all r risks are kept, but of the rows only a copy of the winner so far."""
    if r < 1:
        raise ValueError("r must be >= 1")
    values = np.empty(r)
    start = 0
    for U, (chunk,) in neighborhood_chunks(model, [w], gamma, kind, r, batch, rng):
        end = start + len(U)
        values[start:end] = chunk
        i = int(np.argmax(values[:end]))
        if i >= start:
            best = (i, U[i - start].copy())
        start = end
    return best[0], best[1], float(values[best[0]])


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


def _next_event(p: Union[float, EveryK], t: int, rng_coin: np.random.Generator) -> bool:
    """Whether iteration t is a sampling event. t = 0 always is (the queue
    starts empty). The probabilistic coin is flipped at every t, t = 0
    included, so the coin stream advances identically across algorithm
    variants."""
    if isinstance(p, EveryK):
        return t % p.k == 0
    flip = rng_coin.random() < float(p)
    return True if t == 0 else flip


def _run_loop(
    model: LossModel,
    data: Dataset,
    test: Optional[Dataset],
    cfg: DrmConfig,
    algorithm: str,
    w0: ParamVector,
    queue_probe: Optional[Callable[[int, deque], None]] = None,
) -> tuple[ParamVector, RunTrace]:
    cfg.validate()
    if algorithm not in ("erm", "drm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if len(data) == 0:
        raise ValueError("empty training data")

    rng_perturb = np.random.default_rng([cfg.seed, _STREAM_PERTURB])
    rng_coin = np.random.default_rng([cfg.seed, _STREAM_COIN])
    w = cfg.feasible.project(w0)
    rng_eval = np.random.default_rng([cfg.seed, _STREAM_EVAL])
    try:
        eval_directions = sphere_rows(w, cfg.gamma, cfg.norm_kind, cfg.r, rng_eval)
    except NonFiniteError as exc:
        raise DivergenceError(0, 0, cfg.lr_at(0), None, f"evaluation directions: {exc}") from exc

    measure_acc = getattr(model, "accuracy", None)
    queue = deque(maxlen=cfg.q)  # past worst directions, oldest evicted first
    trace = RunTrace()
    digest = hashlib.sha256()
    m = len(data)
    t = 0
    epoch = 0
    while t < cfg.T:
        batch_index_lists = make_batch_indices(m, cfg.batch_size, [cfg.seed, _STREAM_BATCH, epoch])
        # Overflow shows as a non-finite risk or parameter, which raises DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in batch_index_lists:
                if t >= cfg.T:
                    break
                digest.update(idx.astype(np.int64).tobytes())
                batch = data[idx]
                lr = cfg.lr_at(t)
                event = _next_event(cfg.p, t, rng_coin)
                batch_risk = model.batch_risk(w, batch)
                try:
                    if not math.isfinite(batch_risk):
                        raise NonFiniteError("non-finite batch risk")
                    if algorithm == "erm":
                        perturbed_risk = batch_risk
                        grad_point = w
                    else:
                        if event:
                            _, u_star, _ = draw_worst(
                                model, w, batch, cfg.gamma, cfg.norm_kind, cfg.r, rng_perturb
                            )
                            queue.append(u_star)
                        _, v_star, perturbed_risk = select_worst(model, w, batch, queue)
                        if not math.isfinite(perturbed_risk):
                            raise NonFiniteError("non-finite perturbed batch risk")
                        grad_point = next(shifted(w, (v_star,)))
                    if queue_probe is not None:
                        queue_probe(t, queue)

                    _, grad = model.batch_grad(grad_point, batch)
                    w = cfg.feasible.project(axpy(w, -lr, grad))
                except NonFiniteError as exc:
                    raise DivergenceError(t, epoch, lr, batch_risk, exc) from exc
                trace.iterations.append(IterationRecord(t, epoch, event, lr, batch_risk, perturbed_risk))
                t += 1

            train_risk = model.batch_risk(w, data)
            test_acc = measure_acc(w, test) if (measure_acc and test is not None and len(test)) else None
            diam = float(neighborhood_risks(model, w, eval_directions, data).max())
        for name, value in (("train risk", train_risk), ("diametrical risk estimate", diam)):
            if not math.isfinite(value):
                reason = f"non-finite {name} {value!r} at the end of the epoch"
                raise DivergenceError(t - 1, epoch, lr, batch_risk, reason)
        trace.epochs.append(EpochRecord(t - 1, epoch, train_risk, test_acc, diam))
        epoch += 1

    trace.batch_digest = digest.hexdigest()
    return w, trace


def sgd_erm_run(model, data, test, cfg: DrmConfig, w0: ParamVector) -> tuple[ParamVector, RunTrace]:
    """Plain SGD on the empirical risk; the gradient is taken at w itself."""
    return _run_loop(model, data, test, cfg, "erm", w0)


def simple_sgd_drm_run(model, data, test, cfg: DrmConfig, w0: ParamVector) -> tuple[ParamVector, RunTrace]:
    """Simple DRM loop: the queued loop with q = 1 and fresh perturbations
    every iteration, whatever cfg.q and cfg.p say."""
    cfg.validate()
    return _run_loop(model, data, test, dataclasses.replace(cfg, q=1, p=EveryK(1)), "drm", w0)


def sgd_drm_run(
    model, data, test, cfg: DrmConfig, w0: ParamVector, queue_probe=None
) -> tuple[ParamVector, RunTrace]:
    """Queued DRM loop: sampling events per cfg.p, reuse queue of capacity q."""
    return _run_loop(model, data, test, cfg, "drm", w0, queue_probe)
