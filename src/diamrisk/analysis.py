"""Monte-Carlo verification of the generalization behavior of
worst-case-neighborhood risk, plus landscape flatness diagnostics.

rate_study measures how fast the sup over a 1-D parameter window of
(true risk - neighborhood-sup empirical risk) shrinks with the sample size;
its high quantile should scale like m^(-1/2). confidence_region_check tests
the two excess inclusions that make level sets of the empirical risk valid
confidence regions for good parameters. landscape_histogram and
flatness_report compare how sharply the empirical risk rises around two
trained solutions, using one shared set of random directions so the
comparison is paired.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .data import Dataset
from .losses import LossModel, rho_m
from .params import NormKind, ParamVector, axpy, sample_sphere
from .risk import label_risk_curves, neighborhood_risks, window_grid


def g17(x: float) -> str:
    """Floats formatted with 17 significant digits (lossless round trip)."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Excess of one point set over another (one-sided Hausdorff distance).
# ---------------------------------------------------------------------------


def excess(A, B, kind: NormKind = NormKind.EUCLIDEAN) -> float:
    """sup over a in A of the distance from a to B; exact double loop.

    Returns inf when A is nonempty and B is empty, 0 when A is empty.
    Points may be scalars or equal-length vectors.
    """
    A = _as_points(A)
    B = _as_points(B)
    if A.shape[0] == 0:
        return 0.0
    if B.shape[0] == 0:
        return float("inf")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points must share dimension, got {A.shape[1]} vs {B.shape[1]}")
    diff = A[:, None, :] - B[None, :, :]
    if kind is NormKind.SUP:
        dists = np.max(np.abs(diff), axis=2)
    elif kind is NormKind.EUCLIDEAN:
        dists = np.sqrt(np.sum(diff * diff, axis=2))
    else:
        raise ValueError("excess supports Euclidean and sup norms")
    return float(dists.min(axis=1).max())


def _as_points(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim != 2:
        raise ValueError("point sets must be scalars, vectors, or (n, d) arrays")
    return arr


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


def _neighborhood_sup_curve(model, X: np.ndarray, labels) -> np.ndarray:
    """Row-wise max of the empirical risk over the evaluation matrix."""
    return label_risk_curves(model, X, labels).max(axis=1)


def _spawn_seed(rng: Union[np.random.Generator, int]) -> int:
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(2**63))


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
    n_positive: int  # trials with a strictly positive gap


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
    rng: Union[np.random.Generator, int],
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
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    base_seed = _spawn_seed(rng)

    records = []
    for mi, m in enumerate(m_list):
        gamma_m = gamma if gamma_mode == "fixed" else gamma * m_list[0] / m
        w_grid = window_grid(model, lo, hi, gamma_m, grid_points)
        X = _neighborhood_matrix(model, w_grid, gamma_m, inner_points)
        r_true = model.true_risk_curve(w_grid)
        gaps = np.empty(trials)
        for trial in range(trials):
            trial_rng = np.random.default_rng([base_seed, mi, trial])
            labels = model.sample_labels(trial_rng, m)
            sup_curve = _neighborhood_sup_curve(model, X, labels)
            gaps[trial] = float(np.max(r_true - sup_curve))
        gaps.sort()
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
                n_positive=int(np.sum(gaps > 0)),
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


def write_rate_csv(result: RateStudyResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# alpha={g17(result.alpha)}\n")
        fh.write(f"# eps_floor={g17(EPS_FLOOR)}\n")
        fh.write(f"# gamma_mode={result.gamma_mode}\n")
        fh.write(f"# all_nonpositive={int(result.all_nonpositive)}\n")
        fh.write(
            "# note=the fitted quantile coefficient absorbs all variance and "
            "covering constants; confidence-level variants of the bound are "
            "empirically indistinguishable\n"
        )
        fh.write("m,trials,q05,q50,q95,slope\n")
        slope_txt = "" if result.slope is None else g17(result.slope)
        for rec in result.records:
            fh.write(
                f"{rec.m},{rec.trials},{g17(rec.q05)},{g17(rec.q50)},{g17(rec.q95)},{slope_txt}\n"
            )


# ---------------------------------------------------------------------------
# Confidence-region excess checks.
# ---------------------------------------------------------------------------


@dataclass
class ConfidenceResult:
    epsilons: list[float]
    pass_rates: list[float]  # both excess conditions hold
    level_rates: list[float]  # level-set condition alone
    argmin_rates: list[float]  # argmin-set condition alone
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
    rng: Union[np.random.Generator, int],
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
    lo, hi = float(interval[0]), float(interval[1])
    base_seed = _spawn_seed(rng)
    w_grid = window_grid(model, lo, hi, gamma, grid_points)
    cell = float(np.max(np.diff(w_grid)))
    X = _neighborhood_matrix(model, w_grid, gamma, inner_points)
    r_true = model.true_risk_curve(w_grid)
    level_mask = r_true <= delta_level
    argmin_mask = r_true <= r_true.min() + 1e-15

    both = np.zeros(len(epsilons), dtype=int)
    lvl = np.zeros(len(epsilons), dtype=int)
    arg = np.zeros(len(epsilons), dtype=int)
    empty_events = 0
    tol = gamma + cell
    for trial in range(trials):
        trial_rng = np.random.default_rng([base_seed, trial])
        labels = model.sample_labels(trial_rng, m)
        r_emp = label_risk_curves(model, w_grid, labels)
        sup_curve = _neighborhood_sup_curve(model, X, labels)
        inf_sup = float(sup_curve.min())
        for j, eps in enumerate(epsilons):
            b1 = w_grid[r_emp <= delta_level + eps]
            b2 = w_grid[r_emp <= inf_sup + 2.0 * eps]
            if (level_mask.any() and b1.size == 0) or (argmin_mask.any() and b2.size == 0):
                empty_events += 1
            ok1 = excess(w_grid[level_mask], b1) <= tol
            ok2 = excess(w_grid[argmin_mask], b2) <= tol
            lvl[j] += ok1
            arg[j] += ok2
            both[j] += ok1 and ok2
    return ConfidenceResult(
        epsilons=epsilons,
        pass_rates=(both / trials).tolist(),
        level_rates=(lvl / trials).tolist(),
        argmin_rates=(arg / trials).tolist(),
        empty_level_sets=empty_events,
        gamma=gamma,
        delta=delta_level,
        m=m,
        trials=trials,
        cell=cell,
    )


def write_confidence_csv(result: ConfidenceResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# gamma={g17(result.gamma)}\n")
        fh.write(f"# delta={g17(result.delta)}\n")
        fh.write(f"# m={result.m}\n")
        fh.write(f"# trials={result.trials}\n")
        fh.write(f"# grid_cell={g17(result.cell)}\n")
        fh.write(f"# empty_level_sets={result.empty_level_sets}\n")
        fh.write("epsilon,pass_rate\n")
        for eps, rate in zip(result.epsilons, result.pass_rates):
            fh.write(f"{g17(eps)},{g17(rate)}\n")


# ---------------------------------------------------------------------------
# ERM-vs-DRM generalization gaps on the 1-D analytic losses.
# ---------------------------------------------------------------------------


@dataclass
class GapRecord:
    trial: int
    rho: int
    erm_min_risk: float
    erm_gap: float  # true risk minus empirical risk at the empirical minimizer
    drm_min_risk: float
    drm_gap: float  # true risk minus neighborhood sup at its minimizer


def erm_drm_gap_table(
    model,
    interval: tuple[float, float],
    gamma: float,
    m: int,
    trials: int,
    grid_points: int,
    rng: Union[np.random.Generator, int],
    *,
    inner_points: int = 257,
) -> list[GapRecord]:
    """Per-trial generalization gaps of the grid minimizers of the empirical
    risk and of its neighborhood sup (argmin ties go to the lowest index)."""
    lo, hi = float(interval[0]), float(interval[1])
    base_seed = _spawn_seed(rng)
    w_grid = window_grid(model, lo, hi, gamma, grid_points)
    X = _neighborhood_matrix(model, w_grid, gamma, inner_points)
    r_true = model.true_risk_curve(w_grid)
    out = []
    for trial in range(trials):
        trial_rng = np.random.default_rng([base_seed, trial])
        labels = model.sample_labels(trial_rng, m)
        r_emp = label_risk_curves(model, w_grid, labels)
        sup_curve = _neighborhood_sup_curve(model, X, labels)
        i = int(np.argmin(r_emp))
        j = int(np.argmin(sup_curve))
        out.append(
            GapRecord(
                trial=trial,
                rho=rho_m(labels),
                erm_min_risk=float(r_emp[i]),
                erm_gap=float(r_true[i] - r_emp[i]),
                drm_min_risk=float(sup_curve[j]),
                drm_gap=float(r_true[j] - sup_curve[j]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Landscape histograms and flatness comparison.
# ---------------------------------------------------------------------------


@dataclass
class Histogram:
    values: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
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
    """n independent norm-gamma directions shaped like template."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return [sample_sphere(template, gamma, kind, rng) for _ in range(n)]


def directions_digest(directions: Sequence[ParamVector]) -> str:
    h = hashlib.sha256()
    for u in directions:
        h.update(u.flat().tobytes())
    return h.hexdigest()


def landscape_histogram(
    model: LossModel,
    w_center: ParamVector,
    gamma: float,
    kind: NormKind,
    n_samples: int,
    S: Dataset,
    rng: Union[np.random.Generator, int, None] = None,
    shared_directions: Optional[Sequence[ParamVector]] = None,
    *,
    bins: int = 50,
    max_workers: int = 1,
) -> Histogram:
    """Empirical risk at n_samples random norm-gamma points around w_center.

    Passing shared_directions reuses those exact draws, which makes
    histograms around two different centers directly comparable. Evaluations
    run on the calling thread through risk.neighborhood_risks. max_workers > 1
    fans them out to a thread pool instead (measured slower; only the
    benchmark's span tests use it); results are written by draw index, so
    the histogram does not depend on scheduling. When the value range is too
    narrow to split into bins, the histogram is one bin [min, max].
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if shared_directions is not None:
        if len(shared_directions) != n_samples:
            raise ValueError(
                f"shared_directions has {len(shared_directions)} entries, expected {n_samples}"
            )
        directions = list(shared_directions)
    else:
        if rng is None:
            raise ValueError("need an rng when shared_directions is not given")
        directions = sample_directions(w_center, gamma, kind, n_samples, rng)

    if max_workers > 1:
        values = np.empty(n_samples)

        def _evaluate(i: int) -> None:
            values[i] = model.batch_risk(axpy(w_center, 1.0, directions[i]), S)

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(_evaluate, range(n_samples)))
    else:
        values = neighborhood_risks(model, w_center, directions, S)

    reference = model.batch_risk(w_center, S)
    try:
        counts, edges = np.histogram(values, bins=bins)
    except ValueError as exc:
        # Value range too narrow to split into the requested bins; numpy
        # cannot widen it either when the values are large.
        if "Too many bins" not in str(exc):
            raise
        counts, edges = np.array([n_samples]), np.array([values.min(), values.max()])
    return Histogram(
        values=values,
        bin_edges=edges,
        counts=counts,
        reference=float(reference),
        gamma=gamma,
        kind=kind,
        direction_digest=directions_digest(directions),
    )


def write_hist_csv(hist: Histogram, path, extra: Optional[dict] = None) -> None:
    """Metadata lines prefixed '#', then one neighborhood risk value per line."""
    with open(path, "w") as fh:
        fh.write(f"# n={len(hist.values)}\n")
        fh.write(f"# gamma={g17(hist.gamma)}\n")
        fh.write(f"# kind={hist.kind.value}\n")
        fh.write(f"# reference={g17(hist.reference)}\n")
        fh.write(f"# direction_digest={hist.direction_digest}\n")
        for key, value in (extra or {}).items():
            fh.write(f"# {key}={value}\n")
        for v in hist.values:
            fh.write(g17(v) + "\n")


@dataclass
class FlatnessReport:
    erm_reference: float
    erm_max: float
    erm_gap: float
    drm_reference: float
    drm_max: float
    drm_gap: float
    flatter: Optional[str]  # "drm", "erm", or None on a tie


def flatness_report(hist_erm: Histogram, hist_drm: Histogram) -> FlatnessReport:
    """Max-over-neighborhood risk minus at-center risk, for both solutions.

    The smaller gap marks the flatter landscape. Requires a paired
    comparison: both histograms must be built from the same directions.
    """
    if hist_erm.direction_digest != hist_drm.direction_digest:
        raise ValueError("histograms were built from different direction sets")
    erm_max = float(hist_erm.values.max())
    drm_max = float(hist_drm.values.max())
    erm_gap = erm_max - hist_erm.reference
    drm_gap = drm_max - hist_drm.reference
    if drm_gap < erm_gap:
        flatter = "drm"
    elif erm_gap < drm_gap:
        flatter = "erm"
    else:
        flatter = None
    return FlatnessReport(
        erm_reference=hist_erm.reference,
        erm_max=erm_max,
        erm_gap=erm_gap,
        drm_reference=hist_drm.reference,
        drm_max=drm_max,
        drm_gap=drm_gap,
        flatter=flatter,
    )
