"""Trial-report reference sets and observational-method benchmarking."""

import os

# BLAS sums in an order that depends on its thread count, so one thread keeps the bytes the
# same on every core count. Set before numpy loads: a caller that imported it first keeps its own.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS"), "1"))

__version__ = "0.1.0"
