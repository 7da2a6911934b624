"""Diametrical risk minimization: training against the worst empirical risk
in a parameter-space neighborhood, plus the analysis tools to study it.

Names are imported from their submodules (diamrisk.analysis, diamrisk.risk,
...); the package root exposes only __version__."""

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
