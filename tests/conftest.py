"""Suite-wide setup, imported by pytest before any test module.

One OpenBLAS thread: a training step's weight-gradient GEMMs are large
enough for OpenBLAS to split over a second thread that mostly spins, which
costs CPU time and no wall time.  numpy is not loaded yet when this file
runs, so the setting takes effect here, and the CLI subprocesses the tests
start inherit it.  A value already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
