"""Test-session set-up: pin BLAS to one thread before numpy is imported.

The Monte-Carlo tests run replicates on worker threads. Letting each of
them fan out into a multi-threaded BLAS oversubscribes the cores (the
acceptance scenarios ran about 1.7x slower on a 2-core machine), and a
fixed thread count keeps floating-point results independent of the core
count, as in the benchmark. A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
