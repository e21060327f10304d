"""Test-session setup: BLAS and OpenMP run on one thread, as in CI and perfbench.

The variables must be set before numpy is first imported, because BLAS reads
them once when it loads.  With a pool of BLAS threads, small dense calls such
as scipy's ``expm`` slowed down about a hundredfold now and then, and the
timed criteria in ``test_acceptance.py`` overran their bounds.  A value set in
the environment beforehand still wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
