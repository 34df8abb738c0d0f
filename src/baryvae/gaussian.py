"""Gaussian posterior types, densities, sampling, and the divergence toolbox.

Diagonal Gaussians are the workhorse (mean + per-coordinate standard
deviation); full-covariance Gaussians exist for the fixed-point barycenter
path. A `WeightedFamily` is the one type for a weighted set of Gaussians:
the input of every aggregator and, read as a density, the mixture that
moe, mopoe and mwb return. Divergences: closed-form KL (both argument
orders), closed-form squared 2-Wasserstein, and a brute-force 1-D quantile
oracle for distributions that only expose a density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleError
# sym_eig is not called here but stays importable from this module.
from .linalg import SymMatrix, sqrtm_psd, sym_eig, sym_eigvals  # noqa: F401

SIGMA_FLOOR = 1e-6

LOG_2PI = math.log(2.0 * math.pi)

# Quantile-oracle resolution: a uniform core grid of 20001 points on
# [5e-5, 1 - 5e-5], extended by log-spaced ladders down to 1e-8 in each tail
# so that sigma-dominated pairs are resolved to ~1e-5 relative accuracy.
QUANTILE_CORE_POINTS = 20001
QUANTILE_CORE_EDGE = 5e-5
QUANTILE_TAIL_FLOOR = 1e-8
QUANTILE_TAIL_POINTS = 200
QUANTILE_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance, stored as (mean, sigma).

    `sigma` holds standard deviations, which must be nonnegative, and is
    floored at SIGMA_FLOOR on construction to keep precisions finite.
    """

    mean: np.ndarray = field()
    sigma: np.ndarray = field()

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=np.float64))
        if mean.shape != sigma.shape or mean.ndim != 1:
            raise ValueError(
                f"mean/sigma must be equal-length vectors, got {mean.shape} vs {sigma.shape}"
            )
        if mean.shape[0] == 0:
            raise ValueError("mean/sigma must have dimension >= 1")
        if np.any(sigma < 0.0):
            raise ValueError(f"sigma must be nonnegative, got {float(sigma.min())!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", np.maximum(sigma, SIGMA_FLOOR))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class FullGaussian:
    """Gaussian with a full SPD covariance matrix."""

    mean: np.ndarray = field()
    cov: SymMatrix = field()

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = self.cov if isinstance(self.cov, SymMatrix) else SymMatrix(self.cov)
        if cov.dim != mean.shape[0]:
            raise ValueError(f"cov dim {cov.dim} != mean dim {mean.shape[0]}")
        w = sym_eigvals(cov)
        if w[0] < 1e-12:
            raise ValueError(f"covariance not SPD: smallest eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class WeightedFamily:
    """A nonempty family of equal-dimension Gaussians with simplex weights.

    It is every aggregator's input and, read as a density, the mixture of
    its members: the result of moe, mopoe and mwb.
    """

    members: tuple = field()
    weights: np.ndarray = field()

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be nonempty")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"member dims differ: {sorted(dims)}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(members),):
            raise ValueError("weights length must match member count")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        # written so that a NaN sum fails too
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
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


def _check_dims(p, q):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def kl_diag(p: DiagGaussian, q: DiagGaussian) -> float:
    """KL divergence D(p || q) between diagonal Gaussians, closed form."""
    _check_dims(p, q)
    r = p.sigma / q.sigma
    val = np.sum(
        np.log(q.sigma) - np.log(p.sigma)
        + 0.5 * (r * r + ((p.mean - q.mean) / q.sigma) ** 2 - 1.0)
    )
    return float(max(val, 0.0))


def w2sq_diag(p: DiagGaussian, q: DiagGaussian) -> float:
    """Squared 2-Wasserstein distance between diagonal Gaussians.

    Commuting covariances reduce the general formula to a per-coordinate sum
    of squared mean and sigma gaps.
    """
    _check_dims(p, q)
    return float(np.sum((p.mean - q.mean) ** 2 + (p.sigma - q.sigma) ** 2))


def w2sq_full(p: FullGaussian, q: FullGaussian) -> float:
    """Squared 2-Wasserstein distance between full-covariance Gaussians.

    |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}); symmetric in
    its arguments despite the asymmetric-looking trace term.
    """
    _check_dims(p, q)
    s1, s2 = p.cov.array, q.cov.array
    r1 = sqrtm_psd(p.cov).array
    cross = sqrtm_psd(SymMatrix(r1 @ s2 @ r1)).array
    val = float(np.sum((p.mean - q.mean) ** 2))
    val += float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def entropy_diag(g: DiagGaussian) -> float:
    """Differential entropy of a diagonal Gaussian."""
    return float(0.5 * g.dim * (1.0 + LOG_2PI) + np.sum(np.log(g.sigma)))


def sample(g: DiagGaussian, noise: np.ndarray) -> np.ndarray:
    """Reparameterized draw mean + sigma * noise for caller-supplied noise."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != g.mean.shape:
        raise ValueError(f"noise shape {noise.shape} != dim {g.mean.shape}")
    return g.mean + g.sigma * noise


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


def _stacked(g):
    """(weights K, means K x d, sigmas K x d) of a DiagGaussian or WeightedFamily."""
    if isinstance(g, DiagGaussian):
        return np.ones(1), g.mean[None, :], g.sigma[None, :]
    if isinstance(g, WeightedFamily):
        comps = g.members
        return g.weights, np.stack([c.mean for c in comps]), np.stack([c.sigma for c in comps])
    raise TypeError(f"unsupported distribution type {type(g).__name__}")


def log_density_many(g, xs: np.ndarray) -> np.ndarray:
    """Log density of `g` (DiagGaussian or WeightedFamily) at rows of xs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    weights, means, sigmas = _stacked(g)
    if xs.shape[1] != means.shape[1]:
        raise ValueError(f"point dim {xs.shape[1]} != {means.shape[1]}")
    return mixture_log_density(weights, means, sigmas, xs)


def log_density(g, x: np.ndarray) -> float:
    """Log density of a diagonal Gaussian or mixture at a single point."""
    return float(log_density_many(g, np.atleast_1d(x)[None, :])[0])


def _quantile_u_grid() -> np.ndarray:
    lo = np.geomspace(QUANTILE_TAIL_FLOOR, QUANTILE_CORE_EDGE, QUANTILE_TAIL_POINTS, endpoint=False)
    core = np.linspace(QUANTILE_CORE_EDGE, 1.0 - QUANTILE_CORE_EDGE, QUANTILE_CORE_POINTS)
    return np.concatenate([lo, core, (1.0 - lo)[::-1]])


def _cdf_table(g, n_points: int = 40001):
    """Tabulated CDF of a 1-D density-evaluable distribution by quadrature.

    Gaussians and mixtures are handled natively; any other object must expose
    support() -> (lo, hi) and pdf(xs) -> densities.
    """
    if hasattr(g, "support") and hasattr(g, "pdf"):
        lo, hi = g.support()
        xs = np.linspace(float(lo), float(hi), n_points)
        pdf = np.asarray(g.pdf(xs), dtype=np.float64)
    else:
        _, means, sigmas = _stacked(g)
        if means.shape[1] != 1:
            raise ValueError("quantile oracle handles 1-D distributions only")
        lo = float(np.min(means - 10.0 * sigmas))
        hi = float(np.max(means + 10.0 * sigmas))
        xs = np.linspace(lo, hi, n_points)
        pdf = np.exp(log_density_many(g, xs[:, None]))
    h = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * (h / 2.0))])
    if np.any(np.diff(cdf) < -1e-12):
        raise OracleError("quadrature CDF is non-monotone")
    total = cdf[-1]
    if not (0.99 < total < 1.01):
        raise OracleError(f"quadrature CDF mass {total!r} is not close to 1")
    return xs, cdf / total


def _invert_cdf(xs: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bisection inversion of a tabulated CDF, vectorized over u."""
    lo = np.full_like(u, xs[0])
    hi = np.full_like(u, xs[-1])
    span = xs[-1] - xs[0]
    steps = int(math.ceil(math.log2(span / QUANTILE_BISECT_TOL))) + 1
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = np.interp(mid, xs, cdf) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def w2sq_1d_quantile(p, q) -> float:
    """Brute-force squared 2-Wasserstein distance between 1-D distributions.

    Integrates (F_p^{-1}(u) - F_q^{-1}(u))^2 over the quantile grid, with the
    CDFs built by density quadrature and inverted by bisection. For two
    Gaussians this matches w2sq_diag to better than 1e-4 relative.
    """
    u = _quantile_u_grid()
    xp_s, cp = _cdf_table(p)
    xq_s, cq = _cdf_table(q)
    fp = _invert_cdf(xp_s, cp, u)
    fq = _invert_cdf(xq_s, cq, u)
    val = float(np.trapezoid((fp - fq) ** 2, u))
    return max(val, 0.0)
