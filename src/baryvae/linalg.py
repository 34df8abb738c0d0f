"""Dense symmetric linear algebra: eigendecomposition and PSD square roots.

Both rest on LAPACK's symmetric eigensolver through `numpy.linalg.eigh`, and
`sym_eigvals` on `numpy.linalg.eigvalsh`, so numpy stays the only dependency.
The matrices are the small covariances that appear in latent spaces (dim up to
a few dozen). Non-finite input and solver failures surface as NumericError,
indefinite input to `sqrtm_psd` as NotPsdError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPsdError, NumericError

PSD_EIG_TOL = -1e-10


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric dim x dim matrix of float64.

    The constructor symmetrizes its input via (A + A^T)/2, so stored entries
    satisfy a[i, j] == a[j, i] exactly.
    """

    array: np.ndarray = field()

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "array", (a + a.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.array.shape[0]


def _lapack(solver, a: SymMatrix):
    """`solver(a.array)` with non-finite input and LAPACK failure as NumericError."""
    if not np.isfinite(a.array).all():
        raise NumericError("eigendecomposition of a matrix with NaN or Inf entries")
    try:
        return solver(a.array)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigendecomposition failed: {err}") from err


def sym_eig(a: SymMatrix):
    """Eigendecomposition of a symmetric matrix by LAPACK (`numpy.linalg.eigh`).

    Returns (w, v) with eigenvalues `w` ascending and orthonormal eigenvectors
    in the columns of `v`, so that v @ diag(w) @ v.T reconstructs the input.

    Raises NumericError if the input holds NaN or Inf, or if LAPACK fails to
    converge.
    """
    return _lapack(np.linalg.eigh, a)


def sym_eigvals(a: SymMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (`numpy.linalg.eigvalsh`).

    Skips the eigenvectors; raises NumericError as `sym_eig` does.
    """
    return _lapack(np.linalg.eigvalsh, a)


def sqrtm_psd(a: SymMatrix) -> SymMatrix:
    """Symmetric PSD square root R with R @ R == a.

    Eigenvalues in [PSD_EIG_TOL, 0) are treated as rounding noise and clamped
    to zero; anything below PSD_EIG_TOL raises NotPsdError.
    """
    w, v = sym_eig(a)
    wmin = float(w[0])
    if wmin < PSD_EIG_TOL:
        raise NotPsdError(
            f"matrix is not PSD: smallest eigenvalue {wmin:.3e}", eigenvalue=wmin
        )
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return SymMatrix(root)
