"""Dense symmetric linear algebra: eigendecomposition and PSD square roots.

Both rest on LAPACK's symmetric eigensolver through `numpy.linalg.eigh`, and
`sym_eigvals` on `numpy.linalg.eigvalsh`, so numpy stays the only dependency.
The matrices are the small covariances that appear in latent spaces (dim up to
a few dozen), passed as plain symmetric float64 arrays: LAPACK reads only one
triangle, so a caller symmetrizes where its input may not be. Non-finite input
and solver failures surface as NumericError, indefinite input to `sqrtm_psd`
as NotPsdError.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPsdError, NumericError

PSD_EIG_TOL = -1e-10


def _lapack(solver, a: np.ndarray):
    """`solver(a)` with non-finite input and LAPACK failure as NumericError."""
    if not np.isfinite(a).all():
        raise NumericError("eigendecomposition of a matrix with NaN or Inf entries")
    try:
        return solver(a)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigendecomposition failed: {err}") from err


def sym_eig(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by LAPACK (`numpy.linalg.eigh`).

    Returns (w, v) with eigenvalues `w` ascending and orthonormal eigenvectors
    in the columns of `v`, so that v @ diag(w) @ v.T reconstructs the input.

    Raises NumericError if the input holds NaN or Inf, or if LAPACK fails to
    converge.
    """
    return _lapack(np.linalg.eigh, a)


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (`numpy.linalg.eigvalsh`).

    Skips the eigenvectors; raises NumericError as `sym_eig` does.
    """
    return _lapack(np.linalg.eigvalsh, a)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root R with R @ R == a.

    Eigenvalues in [PSD_EIG_TOL, 0) are treated as rounding noise and clamped
    to zero; anything below PSD_EIG_TOL raises NotPsdError. PSD_EIG_TOL
    (-1e-10) is absolute, not relative to the matrix's scale: it suits
    matrices whose largest entry is near 1, as `wb_full` passes them. On a
    1e-12 scale it clamps an eigenvalue 50 times the positive one, and on a
    1e10 scale it rejects a rounding-level -1e-4. R is returned as
    (R + R^T)/2, so r[i, j] == r[j, i] exactly: it feeds later arithmetic.
    """
    w, v = sym_eig(a)
    wmin = float(w[0])
    if wmin < PSD_EIG_TOL:
        raise NotPsdError(
            f"matrix is not PSD: smallest eigenvalue {wmin:.3e}", eigenvalue=wmin
        )
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return (root + root.T) / 2.0
