"""Suite-wide set-up, run before any test module imports numpy.

Training and evaluation run one thread per CPU themselves, so BLAS is held to
one thread unless the caller chose otherwise: BLAS threads on top of them
would oversubscribe the cores.

Property tests draw the same examples on every run: they are derandomized
and read and write no example database, so a tolerance edge cannot make the
suite flaky between two checkouts. What hypothesis still caches (constants
and unicode tables) goes to a temporary home directory, removed at exit, so
a run writes nothing into the checkout.
"""

import atexit
import os
import shutil
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)
    set_hypothesis_home_dir(_hypothesis_home)
