"""One BLAS/OpenMP thread per process, pinned before NumPy loads.

The arrays are tiny, and BLAS threads only add overhead to them.  This
module loads nothing but ``os``, so an entry point can import it, call
``pin_blas_threads()``, and only then import the modules that load NumPy.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set each thread-count variable to 1; a value already in the
    environment wins."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
