"""Gaussian posterior types and the mixture density.

Diagonal Gaussians are the workhorse (mean + per-coordinate standard
deviation); full-covariance Gaussians exist for the fixed-point barycenter
path and hold their covariance as a plain float64 array, checked and
symmetrized once on construction. A `WeightedFamily` is the one type for a
weighted set of Gaussians: the input of every aggregator and, read as a
density, the mixture that moe, mopoe and mwb return; `mixture_log_density`
evaluates that density on stacked arrays. The closed-form divergences
between diagonal Gaussians live in `barycenter.barycenter_objective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# sqrtm_psd and sym_eig are not called here: a traced aggregate-full benchmark
# run patches both by name on this module, so both stay importable from it.
from .linalg import sqrtm_psd, sym_eig, sym_eigvals  # noqa: F401

SIGMA_FLOOR = 1e-6
# A FullGaussian's covariance must have every eigenvalue at or above this,
# and its smallest eigenvalue above d * eps times its largest: below that,
# rounding alone can make a singular d x d matrix read as positive definite.
COV_EIGENVALUE_FLOOR = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance, stored as (mean, sigma).

    Both must be finite. `sigma` holds standard deviations, which must be
    nonnegative, and is floored at SIGMA_FLOOR to keep precisions finite.
    """

    mean: np.ndarray = field()
    sigma: np.ndarray = field()

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=None, ndmin=1)
        sigma = np.array(self.sigma, dtype=np.float64, copy=None, ndmin=1)
        if mean.ndim != 1 or sigma.ndim != 1:
            raise ValueError(
                f"mean/sigma must be vectors, got shape {mean.shape} vs {sigma.shape}"
            )
        if mean.shape != sigma.shape:
            raise ValueError(f"mean/sigma lengths differ: {len(mean)} vs {len(sigma)}")
        if mean.shape[0] == 0:
            raise ValueError("mean/sigma must have dimension >= 1")
        for name, values in (("mean", mean), ("sigma", sigma)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got NaN or Infinity")
        if (sigma < SIGMA_FLOOR).any():
            if (sigma < 0.0).any():
                raise ValueError(f"sigma must be nonnegative, got {float(sigma.min())!r}")
            sigma = np.maximum(sigma, SIGMA_FLOOR)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class FullGaussian:
    """Gaussian with a full SPD covariance matrix: eigenvalues at least
    COV_EIGENVALUE_FLOOR, and the smallest above d * eps times the largest.

    `cov` is stored as the float64 array (cov + cov^T)/2, so its entries
    satisfy cov[i, j] == cov[j, i] exactly. NaN or Inf raises ValueError in
    the mean and NumericError in cov; a cov breaking these rules, ValueError.
    """

    mean: np.ndarray = field()
    cov: np.ndarray = field()

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {cov.shape}")
        with np.errstate(over="ignore"):  # a finite overflow is rejected below
            sym = (cov + cov.T) / 2.0
        # NaN or Inf in cov is left to sym_eigvals, which raises NumericError
        if not np.isfinite(sym).all() and np.isfinite(cov).all():
            raise ValueError("cov overflows when symmetrized as (cov + cov^T) / 2")
        mean = np.array(self.mean, dtype=np.float64, copy=None, ndmin=1)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite, got NaN or Infinity")
        if sym.shape[0] != mean.shape[0]:
            raise ValueError(f"cov dim {sym.shape[0]} != mean dim {mean.shape[0]}")
        w = sym_eigvals(sym)
        if w[0] < COV_EIGENVALUE_FLOOR:
            raise ValueError(
                f"covariance smallest eigenvalue {w[0]:.3e} is below the floor "
                f"{COV_EIGENVALUE_FLOOR:g}"
            )
        d = len(w)
        if w[0] <= d * np.finfo(np.float64).eps * w[-1]:
            raise ValueError(
                f"covariance is numerically singular: smallest eigenvalue {w[0]:.3e} "
                f"is at most {d} * eps times the largest, {w[-1]:.3e}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", sym)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class WeightedFamily:
    """A nonempty family of equal-dimension Gaussians of one kind with simplex weights.

    It is every aggregator's input and, read as a density, the mixture of
    its members: the result of moe, mopoe and mwb.
    """

    members: tuple = field()
    weights: np.ndarray = field()

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be nonempty")
        if len(set(map(type, members))) != 1:
            raise ValueError("members must be all diagonal or all full-covariance")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"member dims differ: {sorted(dims)}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(members),):
            raise ValueError("weights length must match member count")
        if (w < 0.0).any():
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
            total = float(w.sum())
        if not abs(total - 1.0) <= 1e-12:  # written so that a NaN sum fails too
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform(members) -> "WeightedFamily":
        members = tuple(members)
        return WeightedFamily(members, np.full(len(members), 1.0 / len(members)))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


def mixture_log_density(weights, means, sigmas, xs: np.ndarray) -> np.ndarray:
    """Log density at rows of xs (n x d) of the mixture of K weights, K x d means and sigmas."""
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    # the K x n x d standardized squares are built in one buffer
    diffs = xs[None, :, :] - means[:, None, :]
    diffs /= sigmas[:, None, :]
    np.square(diffs, out=diffs)
    log_sigma = np.sum(np.log(sigmas), axis=1)[:, None]
    d = means.shape[1]
    stacked = -0.5 * np.sum(diffs, axis=2) - log_sigma - 0.5 * d * LOG_2PI + logw[:, None]
    # log-sum-exp over components; an all -inf column maps to -inf.
    top = np.max(stacked, axis=0)
    safe_top = np.where(np.isfinite(top), top, 0.0)
    out = safe_top + np.log(np.sum(np.exp(stacked - safe_top), axis=0))
    return np.where(np.isfinite(top), out, -np.inf)
