"""Aggregation of Gaussian families into joint posteriors.

Every aggregator here solves a weighted barycenter problem over the family:
PoE minimizes reverse KL (precision-weighted product), MoE minimizes forward
KL (the mixture itself), the Bures-Wasserstein barycenter minimizes squared
2-Wasserstein distance (analytic per coordinate for diagonal members, a
fixed-point iteration for full covariances), and MoPoE / MWB take equal-weight
mixtures of the per-subset PoE / Wasserstein barycenters over the modality
powerset. `barycenter_objective` evaluates the underlying weighted objective
so optimality and stationarity can be tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .gaussian import DiagGaussian, FullGaussian, GaussianMixture, kl_diag, w2sq_diag
from .linalg import SymMatrix, sqrtm_psd

WB_FULL_TOL = 1e-9
WB_FULL_MAX_ITER = 200


@dataclass(frozen=True)
class WeightedFamily:
    """A nonempty family of equal-dimension Gaussians with simplex weights."""

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
        if abs(float(w.sum()) - 1.0) > 1e-12:
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


@dataclass(frozen=True)
class SubsetIndex:
    """A subset of `num_modalities` modalities encoded as a bitmask."""

    mask: int
    num_modalities: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.num_modalities):
            raise ValueError(
                f"mask {self.mask} out of range for {self.num_modalities} modalities"
            )

    def members(self):
        return tuple(i for i in range(self.num_modalities) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return len(self.members())

    @property
    def is_empty(self) -> bool:
        return self.mask == 0


def subsets(m: int):
    """All 2^m subsets of m modalities in ascending bitmask order."""
    if not 1 <= m <= 16:
        raise ValueError(f"modality count {m} out of supported range 1..16")
    return [SubsetIndex(mask, m) for mask in range(1 << m)]


def poe(family: WeightedFamily, exponents=None) -> DiagGaussian:
    """Product of experts: normalized product of members raised to `exponents`.

    The result is the precision-weighted Gaussian. With exponents equal to the
    family weights this is the reverse-KL barycenter; unit exponents give the
    plain product of experts.
    """
    if exponents is None:
        alphas = np.ones(family.size)
    else:
        alphas = np.asarray(exponents, dtype=np.float64)
        if alphas.shape != (family.size,):
            raise ValueError("exponents length must match family size")
        if np.any(alphas < 0.0):
            raise ValueError("exponents must be nonnegative")
    if not np.any(alphas > 0.0):
        raise ValueError("at least one exponent must be positive")
    precision = np.zeros(family.dim)
    weighted_mean = np.zeros(family.dim)
    for alpha, member in zip(alphas, family.members):
        prec_m = alpha / (member.sigma**2)
        precision += prec_m
        weighted_mean += prec_m * member.mean
    var = 1.0 / precision
    return DiagGaussian(var * weighted_mean, np.sqrt(var))


def moe(family: WeightedFamily) -> GaussianMixture:
    """Mixture of experts: the family itself as a mixture with its weights."""
    return GaussianMixture(family.members, family.weights)


def wb_diag(family: WeightedFamily) -> DiagGaussian:
    """Wasserstein barycenter of diagonal Gaussians, analytic per coordinate.

    Both the mean and the sigma of the barycenter are the weighted arithmetic
    means of the members' parameters.
    """
    mean = np.zeros(family.dim)
    sigma = np.zeros(family.dim)
    for lam, member in zip(family.weights, family.members):
        mean += lam * member.mean
        sigma += lam * member.sigma
    return DiagGaussian(mean, sigma)


def wb_full(
    family: WeightedFamily, tol: float = WB_FULL_TOL, max_iter: int = WB_FULL_MAX_ITER
) -> FullGaussian:
    """Wasserstein barycenter of full-covariance Gaussians.

    The mean is the weighted average of member means. The covariance S solves
    the fixed-point condition S = T(S) with
    T(S) = sum_m lam_m (S^{1/2} S_m S^{1/2})^{1/2}. Starting from the
    arithmetic mean of the member covariances, each step applies the update of
    Alvarez-Esteban, del Barrio, Cuesta-Albertos & Matran (2016),
    S <- S^{-1/2} T(S)^2 S^{-1/2}, which is unit-step gradient descent on the
    Bures-Wasserstein objective (Chewi et al., 2020). It stops at the first S
    whose residual ||T(S) - S||_F is at most 0.05 * tol * (1 + ||S||_F), or,
    after max_iter updates, at most tol * (1 + ||S||_F).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    covs = [m.cov.array for m in family.members]
    lams = family.weights
    mean = np.zeros(family.dim)
    for lam, member in zip(lams, family.members):
        mean += lam * member.mean

    cov = sum(lam * c for lam, c in zip(lams, covs))
    for iteration in range(max_iter + 1):
        root = sqrtm_psd(SymMatrix(cov)).array
        mapped = np.zeros_like(cov)
        for lam, c in zip(lams, covs):
            mapped += lam * sqrtm_psd(SymMatrix(root @ c @ root)).array
        residual = float(np.linalg.norm(mapped - cov))
        scale = 1.0 + float(np.linalg.norm(cov))
        # iterate well past tol so the returned point, not just its residual,
        # sits within tol of the fixed point
        if residual <= 0.05 * tol * scale:
            return FullGaussian(mean, SymMatrix(cov))
        if iteration == max_iter and residual <= tol * scale:
            return FullGaussian(mean, SymMatrix(cov))
        # S^{-1/2} T(S)^2 S^{-1/2} = X X^T with X = S^{-1/2} T(S)
        try:
            half = np.linalg.solve(root, mapped)
        except np.linalg.LinAlgError as err:
            raise NumericError(f"barycenter iterate became singular: {err}") from err
        cov = half @ half.T
    raise NumericError(
        f"barycenter fixed point not reached in {max_iter} iterations "
        f"(residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


def _powerset_mixture(family, prior, subset_solver) -> GaussianMixture:
    """Equal-weight mixture over the powerset; the empty subset is the prior."""
    comps = []
    for subset in subsets(family.size):
        idx = subset.members()
        if not idx:
            comps.append(prior)
        else:
            sub = WeightedFamily.uniform([family.members[i] for i in idx])
            comps.append(subset_solver(sub))
    return GaussianMixture(tuple(comps), np.full(len(comps), 1.0 / len(comps)))


def mopoe(family: WeightedFamily, prior: DiagGaussian) -> GaussianMixture:
    """Mixture over the modality powerset of unit-exponent subset products."""
    return _powerset_mixture(family, prior, lambda sub: poe(sub, np.ones(sub.size)))


def mwb(family: WeightedFamily, prior: DiagGaussian) -> GaussianMixture:
    """Mixture over the modality powerset of subset Wasserstein barycenters."""
    return _powerset_mixture(family, prior, wb_diag)


DIVERGENCES = ("forward_kl", "reverse_kl", "w2sq")


def barycenter_objective(family: WeightedFamily, q: DiagGaussian, divergence: str) -> float:
    """Weighted sum of divergences from the family members to a candidate q.

    forward_kl uses D(member || q), reverse_kl uses D(q || member), and w2sq
    is symmetric.
    """
    if divergence == "forward_kl":
        terms = (kl_diag(m, q) for m in family.members)
    elif divergence == "reverse_kl":
        terms = (kl_diag(q, m) for m in family.members)
    elif divergence == "w2sq":
        terms = (w2sq_diag(m, q) for m in family.members)
    else:
        raise ValueError(f"unknown divergence {divergence!r}; expected one of {DIVERGENCES}")
    return float(sum(lam * t for lam, t in zip(family.weights, terms)))
