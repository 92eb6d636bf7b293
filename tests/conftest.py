"""Test-session setup: one BLAS thread, set before numpy loads, as
``perfbench/run.py`` sets it, so that the wall-clock budgets of the
acceptance tests do not depend on how many threads a BLAS library starts.
A value already in the environment is kept."""

import os
import sys

#: whether numpy was imported before this file ran, too late to pin threads
NUMPY_PRELOADED = "numpy" in sys.modules

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
