"""Pin BLAS and OpenMP to one thread before anything imports numpy.

The suite runs many small matrix products one start at a time (the
serial references of tests/test_solver.py); handing each off between
BLAS threads makes them many times slower on a loaded machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
