"""Monte-Carlo verification of the generalization behavior of
worst-case-neighborhood risk, plus landscape flatness diagnostics.

rate_study measures how fast the sup over a 1-D parameter window of
(true risk - neighborhood-sup empirical risk) shrinks with the sample size;
its high quantile should scale like m^(-1/2). confidence_region_check tests
the two excess inclusions that make level sets of the empirical risk valid
confidence regions for good parameters. erm_drm_gap_table compares the
generalization gaps of the ERM and DRM grid minimizers. These three 1-D
studies share one window, _Window, which checks that lo < hi and that its
neighbourhoods fit in the floats, and its trial loop. landscape_histogram
and flatness_report compare how sharply the empirical risk rises around
two trained solutions, using one shared set of random directions so the
comparison is paired; a histogram's direction_digest, the sha256 of the
draw's recipe, tells whether two histograms share their directions.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel, rho_m
from .params import NormKind, ParamVector, axpy, sample_sphere
from .risk import digested_chunks, score_chunks, window_grid


def csv_text(meta: dict, header: Optional[str], rows) -> str:
    """The text of an artifact CSV, and the one place an artifact value
    becomes text: '# key=value' meta lines, the header line if any, then the
    rows' cells joined by commas. A value is written as str writes it (a
    float, numpy or not, as its shortest round-trip repr); None is blank."""

    def cell(value) -> str:
        return "" if value is None else str(value)

    lines = [f"# {key}={cell(value)}" for key, value in meta.items()]
    if header is not None:
        lines.append(header)
    lines += [",".join(map(cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Excess of one point set over another (one-sided Hausdorff distance).
# ---------------------------------------------------------------------------


def excess(A, B) -> float:
    """sup over a in A of the distance |a - b| to the nearest b in B, for
    sets of real numbers: each a is compared with its neighbours on either
    side in sorted B.

    Returns inf when A is nonempty and B is empty, 0 when A is empty.
    """
    A = np.ravel(np.asarray(A, dtype=np.float64))
    B = np.sort(np.ravel(np.asarray(B, dtype=np.float64)))
    if A.size == 0:
        return 0.0
    if B.size == 0:
        return float("inf")
    i = np.searchsorted(B, A)
    below = np.abs(A - B[np.maximum(i - 1, 0)])
    above = np.abs(B[np.minimum(i, B.size - 1)] - A)
    return float(np.minimum(below, above).max())


# ---------------------------------------------------------------------------
# Shared 1-D grid machinery for the Monte-Carlo studies.
# ---------------------------------------------------------------------------


def _neighborhood_matrix(model, w_grid: np.ndarray, gamma: float, inner_points: int) -> np.ndarray:
    """(N, K) evaluation points: row n spans [w_n - gamma, w_n + gamma]
    uniformly, plus one column per loss breakpoint clipped into the row's
    interval (so every in-range breakpoint is evaluated exactly)."""
    if inner_points < 3:
        raise ValueError("inner_points must be >= 3")
    offsets = np.linspace(-gamma, gamma, inner_points)
    X = w_grid[:, None] + offsets[None, :]
    cols = [X]
    lo = w_grid - gamma
    hi = w_grid + gamma
    for b in getattr(model, "breakpoints", ()):
        cols.append(np.clip(b, lo, hi)[:, None])
    return np.concatenate(cols, axis=1)


class _Window:
    """The parameter window of a 1-D study: its grid, the true risk on it, and
    label 0's loss on the grid and on the neighbourhood matrix, evaluated
    once and kept as the grid column and each row's max and min. A sample
    enters only through its count: curves(rho, m, trial) scales label 0's
    loss by a = rho/m (ScalarLossModel's closed form, rho = rho_m(labels)),
    and multiplying by one scalar is monotone under rounding, so the
    neighbourhood sup of a trial is a times the row max (a >= 0) or the row
    min (a < 0), bit for bit the max over the scaled row."""

    def __init__(self, model, interval, gamma: float, grid_points: int, inner_points: int):
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValueError("interval must satisfy lo < hi")
        if not np.isfinite(max(abs(lo), abs(hi), gamma) + gamma):  # covers 2 * gamma and w +- gamma
            raise ValueError(f"the neighbourhoods of [{lo}, {hi}] at gamma={gamma} pass the largest float")
        self.model = model
        self.w_grid = window_grid(model, lo, hi, gamma, grid_points)
        self.r_true = model.true_risk_curve(self.w_grid)
        # Column 0 is the grid point itself, the rest its neighbourhood.
        points = np.concatenate(
            [self.w_grid[:, None], _neighborhood_matrix(model, self.w_grid, gamma, inner_points)], axis=1
        )
        # A window reaching a pole overflows; curves() raises on the non-finite risk.
        with np.errstate(over="ignore", invalid="ignore"):
            loss = model.eval_scalar(points, 0)
        self.center = loss[:, 0]
        self.row_max, self.row_min = loss[:, 1:].max(axis=1), loss[:, 1:].min(axis=1)

    def curves(self, rho: int, m: int, trial: int) -> tuple[np.ndarray, np.ndarray]:
        """(empirical risk, its neighbourhood sup) on the grid for one sample
        of m labels with rho = rho_m(labels); trial names it in the error."""
        a = rho / m
        with np.errstate(invalid="ignore"):  # 0 * inf when rho_m = 0 at a pole
            r_emp = a * self.center
            sup_curve = a * (self.row_max if a >= 0 else self.row_min)
        if not (np.isfinite(r_emp).all() and np.isfinite(sup_curve).all()):
            raise ValueError(
                f"trial {trial} (m={m}): the empirical risk is not finite on the window "
                f"[{self.w_grid[0]}, {self.w_grid[-1]}]"
            )
        return r_emp, sup_curve

    def trials(self, m: int, trials: int, seed: Sequence[int]):
        """(rho_m, empirical risk, its neighbourhood sup) for each trial, the
        m labels of trial t drawn from stream [*seed, t] and counted once."""
        for trial in range(trials):
            rho = rho_m(self.model.sample_labels(np.random.default_rng([*seed, trial]), m))
            yield (rho, *self.curves(rho, m, trial))


# ---------------------------------------------------------------------------
# Rate of convergence of the sup-gap.
# ---------------------------------------------------------------------------


# Floor under the fitted quantiles, so the log in the slope fit stays finite.
EPS_FLOOR = 1e-12


@dataclass
class RateRecord:
    m: int
    trials: int
    gamma: float
    q05: float
    q50: float
    q95: float
    q_alpha: float


@dataclass
class RateStudyResult:
    records: list[RateRecord]
    slope: Optional[float]
    alpha: float
    all_nonpositive: bool
    gamma_mode: str


def rate_study(
    model,
    interval: tuple[float, float],
    gamma: float,
    m_list: Sequence[int],
    trials: int,
    alpha: float,
    grid_points: int,
    rng: int,
    *,
    inner_points: int = 257,
    gamma_mode: str = "fixed",
) -> RateStudyResult:
    """Quantiles of G_m = max over the window grid of (true risk - neighborhood
    sup of the empirical risk), across freshly drawn datasets of each size m.

    Reports per-m quantiles of G_m and the least-squares slope of
    log max(q_m, EPS_FLOOR) vs log m over the records with q_m > 0, where q_m
    is the empirical (1 - alpha) quantile. gamma_mode "inverse_m" shrinks the
    radius proportionally to 1/m (anchored at the first m).
    """
    if trials < 30:
        raise ValueError("need at least 30 trials per m")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    m_list = [int(m) for m in m_list]
    if any(b <= a for a, b in zip(m_list, m_list[1:])) or not m_list:
        raise ValueError("m_list must be nonempty and strictly increasing")
    if gamma_mode not in ("fixed", "inverse_m"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")

    records = []
    for mi, m in enumerate(m_list):
        gamma_m = gamma if gamma_mode == "fixed" else gamma * m_list[0] / m
        window = _Window(model, interval, gamma_m, grid_points, inner_points)
        trial_curves = window.trials(m, trials, [rng, mi])
        gaps = np.array([np.max(window.r_true - sup_curve) for _, _, sup_curve in trial_curves])
        q05, q50, q95 = np.quantile(gaps, [0.05, 0.5, 0.95])
        q_alpha = float(np.quantile(gaps, 1.0 - alpha))
        records.append(
            RateRecord(
                m=m,
                trials=trials,
                gamma=gamma_m,
                q05=float(q05),
                q50=float(q50),
                q95=float(q95),
                q_alpha=q_alpha,
            )
        )

    positive = [(rec.m, max(rec.q_alpha, EPS_FLOOR)) for rec in records if rec.q_alpha > 0]
    slope = None
    if len(positive) >= 2:
        xs = np.log([m for m, _ in positive])
        ys = np.log([q for _, q in positive])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return RateStudyResult(
        records=records,
        slope=slope,
        alpha=alpha,
        all_nonpositive=all(rec.q_alpha <= 0 for rec in records),
        gamma_mode=gamma_mode,
    )


def rate_csv(result: RateStudyResult) -> str:
    meta = {
        "alpha": result.alpha,
        "eps_floor": EPS_FLOOR,
        "gamma_mode": result.gamma_mode,
        "all_nonpositive": int(result.all_nonpositive),
        "note": "the fitted quantile coefficient absorbs all variance and "
        "covering constants; confidence-level variants of the bound are "
        "empirically indistinguishable",
    }
    rows = [(rec.m, rec.trials, rec.q05, rec.q50, rec.q95, result.slope) for rec in result.records]
    return csv_text(meta, "m,trials,q05,q50,q95,slope", rows)


# ---------------------------------------------------------------------------
# Confidence-region excess checks.
# ---------------------------------------------------------------------------


@dataclass
class ConfidenceResult:
    epsilons: list[float]
    pass_rates: list[float]  # both excess conditions hold
    empty_level_sets: int  # (trial, epsilon) events with a required set empty
    gamma: float
    delta: float
    m: int
    trials: int
    cell: float


def confidence_region_check(
    model,
    interval: tuple[float, float],
    gamma: float,
    delta_level: float,
    m: int,
    trials: int,
    grid_points: int,
    rng: int,
    epsilons: Sequence[float],
    *,
    inner_points: int = 257,
) -> ConfidenceResult:
    """Fraction of trials in which both excess conditions hold, per epsilon.

    Condition 1: the set where the true risk is at most delta sits within
    gamma of the set where the empirical risk is at most delta + eps.
    Condition 2: the true-risk argmin set sits within gamma of the set where
    the empirical risk is at most (min over the window of the neighborhood
    sup) + 2 eps. Sets are discretized on the window grid, and one grid cell
    of slack is added to gamma. A required-nonempty set coming out empty is
    recorded, not fatal.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("need at least one epsilon")
    window = _Window(model, interval, gamma, grid_points, inner_points)
    w_grid, r_true = window.w_grid, window.r_true
    cell = float(np.max(np.diff(w_grid)))
    level_mask = r_true <= delta_level
    argmin_mask = r_true <= r_true.min() + 1e-15

    both = np.zeros(len(epsilons), dtype=int)
    empty_events = 0
    tol = gamma + cell
    for _, r_emp, sup_curve in window.trials(m, trials, [rng]):
        inf_sup = float(sup_curve.min())
        for j, eps in enumerate(epsilons):
            b1 = w_grid[r_emp <= delta_level + eps]
            b2 = w_grid[r_emp <= inf_sup + 2.0 * eps]
            if (level_mask.any() and b1.size == 0) or (argmin_mask.any() and b2.size == 0):
                empty_events += 1
            ok1 = excess(w_grid[level_mask], b1) <= tol
            ok2 = excess(w_grid[argmin_mask], b2) <= tol
            both[j] += ok1 and ok2
    return ConfidenceResult(
        epsilons=epsilons,
        pass_rates=(both / trials).tolist(),
        empty_level_sets=empty_events,
        gamma=gamma,
        delta=delta_level,
        m=m,
        trials=trials,
        cell=cell,
    )


def confidence_csv(result: ConfidenceResult) -> str:
    meta = {
        "gamma": result.gamma,
        "delta": result.delta,
        "m": result.m,
        "trials": result.trials,
        "grid_cell": result.cell,
        "empty_level_sets": result.empty_level_sets,
    }
    return csv_text(meta, "epsilon,pass_rate", zip(result.epsilons, result.pass_rates))


# ---------------------------------------------------------------------------
# ERM-vs-DRM generalization gaps on the 1-D analytic losses.
# ---------------------------------------------------------------------------


class GapRecord(NamedTuple):
    """One row of examples.csv; the field names are its header."""

    trial: int
    rho: int
    erm_gap: float  # true risk minus empirical risk at the empirical minimizer
    drm_gap: float  # true risk minus neighborhood sup at its minimizer


def erm_drm_gap_table(
    model,
    interval: tuple[float, float],
    gamma: float,
    m: int,
    trials: int,
    grid_points: int,
    rng: int,
    *,
    inner_points: int = 257,
) -> list[GapRecord]:
    """Per-trial generalization gaps of the grid minimizers of the empirical
    risk and of its neighborhood sup (argmin ties go to the lowest index)."""
    window = _Window(model, interval, gamma, grid_points, inner_points)
    r_true = window.r_true
    out = []
    for trial, (rho, r_emp, sup_curve) in enumerate(window.trials(m, trials, [rng])):
        i, j = int(np.argmin(r_emp)), int(np.argmin(sup_curve))
        out.append(GapRecord(trial, rho, float(r_true[i] - r_emp[i]), float(r_true[j] - sup_curve[j])))
    return out


# ---------------------------------------------------------------------------
# Landscape histograms and flatness comparison.
# ---------------------------------------------------------------------------


@dataclass
class Histogram:
    values: np.ndarray
    reference: float  # empirical risk at the center point
    gamma: float
    kind: NormKind
    direction_digest: str


def sample_directions(
    template: ParamVector,
    gamma: float,
    kind: NormKind,
    n: int,
    rng: Union[np.random.Generator, int],
) -> list[ParamVector]:
    """n independent norm-gamma directions shaped like template, one
    sample_sphere vector each (the thread-pool path and the benchmark's
    accounting tests use it; the serial path draws rows)."""
    rng = np.random.default_rng(rng)
    return [sample_sphere(template, gamma, kind, rng) for _ in range(n)]


def landscape_histogram(
    model: LossModel,
    w_center: Union[ParamVector, Sequence[ParamVector]],
    gamma: float,
    kind: NormKind,
    n_samples: int,
    S: Dataset,
    rng: Union[np.random.Generator, int],
    *,
    max_workers: int = 1,
) -> Union[Histogram, list[Histogram]]:
    """Empirical risk at n_samples random norm-gamma points around w_center.

    w_center is one vector, or a sequence of centers that are all evaluated
    on the same directions (one Histogram each, so histograms around
    different centers are directly comparable). Directions are drawn as rows,
    risk._CHUNK at a time, into two chunk buffers that take turns, so only
    the (centers, n_samples) risk array grows with n_samples. One worker
    thread fills each chunk with Gaussians, one chunk ahead, while the
    calling thread rescales it and scores it around every center
    (risk.digested_chunks, risk.score_chunks), so the forward passes stay
    there. Only that worker touches rng, in draw order, so values and
    errors are those of drawing and scoring one chunk after the other.
    max_workers > 1 draws all directions at once as vectors
    (sample_directions) and fans the evaluations out to a thread pool
    instead (measured slower; only the benchmark's span tests use it);
    results are written by draw index, so the histogram does not depend on
    scheduling. Both paths draw the same values in the same order, and the
    digest is the sha256 of the draw's recipe, read before it: the JSON list
    [rng.bit_generator.state, n_samples, gamma, kind.value, layer shapes].
    A non-finite neighborhood risk raises ValueError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    centers = [w_center] if isinstance(w_center, ParamVector) else list(w_center)
    if not centers:
        raise ValueError("need at least one center")
    rng = np.random.default_rng(rng)
    recipe = [rng.bit_generator.state, n_samples, float(gamma), kind.value, centers[0].shapes]
    # Keys sorted; the arrays in MT19937's and Philox's states written as lists.
    text = json.dumps(recipe, sort_keys=True, default=lambda a: a.tolist())
    digest = hashlib.sha256(text.encode()).hexdigest()
    rows = np.empty((len(centers), n_samples))
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: no subcommand runs a pool

        directions = sample_directions(centers[0], gamma, kind, n_samples, rng)
        for w, values in zip(centers, rows):

            def _evaluate(i: int) -> None:
                # numpy's error state is per thread, so each worker sets it.
                with np.errstate(over="ignore", invalid="ignore"):
                    values[i] = model.batch_risk(axpy(w, 1.0, directions[i]), S)

            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                list(pool.map(_evaluate, range(n_samples)))
    else:
        chunks = digested_chunks(centers[0], gamma, kind, n_samples, rng)
        # closing joins the worker on any exit. Overflow shows as a non-finite value, checked below.
        with closing(chunks) as drawn, np.errstate(over="ignore", invalid="ignore"):
            for _ in score_chunks(model, centers, drawn, S, rows):
                pass

    if not np.isfinite(rows).all():
        raise ValueError(f"non-finite neighborhood risk at gamma={gamma:g}")
    hists = [
        Histogram(values, float(model.batch_risk(w, S)), gamma, kind, digest)
        for w, values in zip(centers, rows)
    ]
    return hists[0] if isinstance(w_center, ParamVector) else hists


def hist_csv(hist: Histogram, **extra) -> str:
    """Metadata lines, extra's last, then one neighborhood risk value per line."""
    meta = {
        "n": len(hist.values),
        "gamma": hist.gamma,
        "kind": hist.kind.value,
        "reference": hist.reference,
        "direction_digest": hist.direction_digest,
        **extra,
    }
    return csv_text(meta, None, ((v,) for v in hist.values.tolist()))


@dataclass
class FlatnessReport:
    erm_gap: float
    drm_gap: float
    flatter: Optional[str]  # "drm", "erm", or None on a tie


def flatness_report(hist_erm: Histogram, hist_drm: Histogram) -> FlatnessReport:
    """Max-over-neighborhood risk minus at-center risk, for both solutions.

    The smaller gap marks the flatter landscape. Requires a paired
    comparison: both histograms must be built from the same directions.
    """
    if hist_erm.direction_digest != hist_drm.direction_digest:
        raise ValueError("histograms were built from different direction sets")
    erm_gap = float(hist_erm.values.max()) - hist_erm.reference
    drm_gap = float(hist_drm.values.max()) - hist_drm.reference
    if drm_gap < erm_gap:
        flatter = "drm"
    elif erm_gap < drm_gap:
        flatter = "erm"
    else:
        flatter = None
    return FlatnessReport(erm_gap=erm_gap, drm_gap=drm_gap, flatter=flatter)
