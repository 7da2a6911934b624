"""Diametrical risk minimization: training against the worst empirical risk
in a parameter-space neighborhood, plus the analysis tools to study it."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when importing numpy loads it. The
# products here are small (a few hundred rows through a ~16k-parameter net):
# a second BLAS thread gains nothing on them and spins between calls. So
# unless the user chose a count, load it single-threaded, then restore the
# environment so that child processes see the user's own. If numpy was
# imported before this package, its default threading stays.
if "numpy" not in _sys.modules and not any(
    var in _os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401  (loads OpenBLAS)
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    FlatnessReport,
    Histogram,
    RateStudyResult,
    confidence_region_check,
    erm_drm_gap_table,
    excess,
    flatness_report,
    landscape_histogram,
    rate_study,
)
from .data import Dataset, flip_labels, gen_gaussian_blobs
from .harness import (
    ConfigError,
    ExperimentConfig,
    default_experiment_config,
    load_experiment_config,
    run_label_noise_experiment,
)
from .losses import (
    LossModel,
    QuadraticLoss,
    ReciprocalLoss,
    TentLoss,
    quadratic_eval,
    reciprocal_eval,
    rho_m,
)
from .mlp import MlpLossModel, MlpSpec, accuracy_on, init_params, loss_and_grad, nll_softmax
from .optimizer import (
    DivergenceError,
    DrmConfig,
    EveryK,
    RunTrace,
    select_worst,
    sgd_drm_run,
    sgd_erm_run,
    simple_sgd_drm_run,
    simple_sgd_drm_step,
)
from .params import (
    Box,
    FeasibleSet,
    NormKind,
    ParamVector,
    Unbounded,
    axpy,
    norm,
    sample_sphere,
)
from .risk import diametrical_risk_grid_1d, diametrical_risk_sampled, empirical_risk
