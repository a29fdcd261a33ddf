"""Settings the test session needs before numpy loads.

One OpenBLAS thread: most of the suite runs convolution on the fast tier,
whose small GEMMs run about 100x slower on OpenBLAS's default thread count
(one per core) when another process holds a core. OpenBLAS reads the
variable once, when numpy loads it, so it is set here, before any test
module imports numpy; a value already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
