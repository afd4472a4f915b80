import os
import sys

# One BLAS/OpenMP thread unless the user chose otherwise.  Every LAPACK call
# here is tiny, and OpenBLAS's default thread pool can stall the first one
# for most of a second.  The libraries read these variables once, when numpy
# loads them, so this must run first; importing the package does not load
# numpy (see __init__).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
