"""Suite-wide set-up, run before any test module imports numpy.

Training and evaluation run one thread per CPU themselves, so BLAS is held to
one thread unless the caller chose otherwise: BLAS threads on top of them
would oversubscribe the cores.

Property tests draw the same examples on every run: they are derandomized
and read and write no example database, so a tolerance edge cannot make the
suite flaky between two checkouts.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")
