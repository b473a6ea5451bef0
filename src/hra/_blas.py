"""numpy, loaded with one BLAS thread.

hra calls no BLAS routine, but OpenBLAS starts its worker threads when
numpy loads, and each idle worker spins for about 0.1 s of CPU before it
sleeps. So numpy is loaded with one BLAS thread, unless numpy is already
loaded or the user has set a thread count. OpenBLAS reads the variable
once, at load, so it is removed again: os.environ and child processes
never see it. Every hra module that uses numpy takes it from here
(`from ._blas import np`), so whichever loads first runs this guard;
`import hra` alone loads no numpy.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
        name in os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import numpy as np

__all__ = ["np"]
