"""Import panelroute before any test module imports numpy, so that its
one-BLAS-thread default (a value already set in the environment wins) holds
for the whole suite. The suite's matrices are small, so a thread pool costs
more than it saves."""

import panelroute  # noqa: F401
