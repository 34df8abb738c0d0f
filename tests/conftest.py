"""Suite-wide set-up, run before any test module imports numpy.

Training and evaluation run one thread per CPU themselves, so BLAS is held to
one thread unless the caller chose otherwise: BLAS threads on top of them
would oversubscribe the cores.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
