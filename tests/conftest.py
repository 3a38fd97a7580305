"""Pin BLAS to one thread before any test module imports numpy. The suite's
matrices are small, so a thread pool costs more than it saves; a value already
set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
