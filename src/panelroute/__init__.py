"""Routed panel-of-experts triage over tokenized clinical event streams."""

import os

# One BLAS thread unless the caller chose: set before any panelroute module
# imports numpy, since OpenBLAS reads it once, when numpy loads. A thread pool
# changes the bytes of the fitted artifacts and, on these small matrices,
# slows the L-BFGS heads. A process that imported numpy first keeps its pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
