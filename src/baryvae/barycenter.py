"""Aggregation of Gaussian families into joint posteriors.

Every aggregator here is read through a weighted barycenter problem over a
`gaussian.WeightedFamily`. PoE is the unit-exponent product of experts (the
MVAE convention); the reverse-KL barycenter is `poe(family, family.weights)`,
the product with the weights as exponents. MoE minimizes forward KL (the
family itself), the Bures-Wasserstein
barycenter minimizes squared 2-Wasserstein distance (analytic per coordinate
for diagonal members, a fixed-point iteration for full covariances), and
MoPoE / MWB take equal-weight mixtures of the per-subset PoE / Wasserstein
barycenters over the modality powerset. A mixture result is a WeightedFamily
too, read as the mixture of its members.

For diagonal members the five differ only in a table, `mixing`: which experts
make each component, with which coefficients, and whether the coefficients
mix (precision, precision * mean) or (mean, sigma). The standard-normal prior
is the table's last column. `joint` is the one place that appends the prior
and applies a table, with one diffgraph primitive, so training graphs,
batched evaluation arrays and `aggregate`, which returns the components of
one diagonal family as arrays, share one implementation; `wb_diag`, `mopoe`
and `mwb` are typed views of `aggregate`, and `poe` applies the `poe` row
with any nonnegative exponents.

`barycenter_objective` states the claim itself on arrays: the weighted
forward KL, reverse KL or squared 2-Wasserstein distance from M stacked
diagonal experts to n candidates, in closed form, in one call. Each
closed form is written only there; a per-pair divergence is its
one-expert, one-row case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .errors import NotPsdError, NumericError
from .gaussian import SIGMA_FLOOR, DiagGaussian, FullGaussian, WeightedFamily
from .linalg import sqrtm_psd

WB_FULL_TOL = 1e-9
WB_FULL_MAX_ITER = 200


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


# The powerset methods and the subset sweep hold 2^M rows; M is capped here.
MAX_MODALITIES = 16


def subsets(m: int):
    """All 2^m subsets of m modalities in ascending bitmask order."""
    if not 1 <= m <= MAX_MODALITIES:
        raise ValueError(f"modality count {m} out of supported range 1..{MAX_MODALITIES}")
    return [SubsetIndex(mask, m) for mask in range(1 << m)]


METHODS = ("poe", "moe", "wb", "mopoe", "mwb")
# The methods whose table reads the family weights; the others ignore them.
WEIGHTED_METHODS = ("moe", "wb")


def mixing(method: str, weights):
    """The method's table over M experts and the N(0, I) prior.

    Returns (component weights K, rows K x (M+1), natural). Column j < M is
    expert j and the last column is the prior. poe has one row of unit
    exponents and wb one row of the family weights; moe has one expert per
    row with the family weights as component weights; mopoe and mwb have one
    row per subset in ascending bitmask order, the empty subset being the
    prior, with uniform component weights. Natural rows mix precision and
    precision * mean (poe, mopoe); the others mix mean and sigma.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    w = np.asarray(weights, dtype=np.float64)
    m = w.shape[0]
    natural = method in ("poe", "mopoe")
    if method in ("poe", "wb", "moe"):
        if m == 0:
            raise ValueError(f"{method} needs a non-empty modality subset")
        if method == "moe":
            return w, np.eye(m, m + 1), natural
        return np.ones(1), np.append(np.ones(m) if natural else w, 0.0)[None], natural
    if m > MAX_MODALITIES:
        raise ValueError(f"{method} supports at most {MAX_MODALITIES} experts, got {m}")
    return (*_powerset_table(m, natural), natural)


@functools.cache
def _powerset_table(m: int, natural: bool):
    """The mopoe (natural) or mwb table over m experts, built once, read-only."""
    rows = np.zeros((1 << m, m + 1))
    rows[0, m] = 1.0
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        rows[mask, idx] = 1.0 if natural else 1.0 / len(idx)
    weights = np.full(1 << m, 1.0 / (1 << m))
    rows.flags.writeable = weights.flags.writeable = False
    return weights, rows


def joint(rows, natural: bool, mus, sigmas, like):
    """The table's components from M experts and the N(0, I) prior.

    mus and sigmas list the M experts' equal-shape n x d entries; the prior,
    the table's last column, is appended here with the shape and dtype of
    `like`, so an empty subset's table gives the prior alone. Raw arrays give
    arrays, and diffgraph Values, as in training, give tape nodes. Returns
    (mean, sigma), each (K n) x d with the components stacked
    component-major.
    """
    prior = np.zeros(like.shape, like.dtype)
    mus, sigmas = [*mus, prior], [*sigmas, np.ones_like(prior)]
    if not natural:
        return dg.mix(rows, mus), dg.mix(rows, sigmas)
    precs = [dg.reciprocal(dg.square(s)) for s in sigmas]
    var = dg.reciprocal(dg.mix(rows, precs))
    weighted = dg.mix(rows, [dg.mul(p, mu) for p, mu in zip(precs, mus)])
    return dg.mul(var, weighted), dg.sqrt(var)


def _family_joint(family: WeightedFamily, weights, rows, natural: bool):
    """(weights K, mean K x d, sigma K x d) of a table over one diagonal family."""
    if not isinstance(family.members[0], DiagGaussian):
        raise TypeError("expected a diagonal family; wb_full aggregates full covariances")
    means = [g.mean[None] for g in family.members]
    mean, sigma = joint(rows, natural, means, [g.sigma[None] for g in family.members], means[0])
    # floored here once, as a DiagGaussian would floor it
    return weights, mean, np.maximum(sigma, SIGMA_FLOOR)


def aggregate(family: WeightedFamily, method: str):
    """The joint posterior of a diagonal `family` under `method`, one of METHODS.

    Returns (weights K, mean K x d, sigma K x d): one component for poe and
    wb, the members with their weights for moe, and for mopoe and mwb one
    component per subset in ascending bitmask order, the empty subset being
    the N(0, I) prior. Full-covariance families go to `wb_full`.
    """
    return _family_joint(family, *mixing(method, family.weights))


def _gaussian(weights, mean, sigma) -> DiagGaussian:
    return DiagGaussian(mean[0], sigma[0])


def _mixture(weights, mean, sigma) -> WeightedFamily:
    return WeightedFamily(tuple(map(DiagGaussian, mean, sigma)), weights)


def poe(family: WeightedFamily, exponents=None) -> DiagGaussian:
    """Product of experts: normalized product of members raised to `exponents`.

    The result is the precision-weighted Gaussian. With exponents equal to the
    family weights this is the reverse-KL barycenter; unit exponents (the
    default, the `poe` row of `mixing`) give the plain product of experts.
    """
    alphas = np.ones(family.size) if exponents is None else np.asarray(exponents, np.float64)
    if alphas.shape != (family.size,):
        raise ValueError("exponents length must match family size")
    if np.any(alphas < 0.0):
        raise ValueError("exponents must be nonnegative")
    if not np.any(alphas > 0.0):
        raise ValueError("at least one exponent must be positive")
    return _gaussian(*_family_joint(family, np.ones(1), np.append(alphas, 0.0)[None], True))


def moe(family: WeightedFamily) -> WeightedFamily:
    """Mixture of experts: the forward-KL barycenter is the family itself."""
    return family


def wb_diag(family: WeightedFamily) -> DiagGaussian:
    """Wasserstein barycenter of diagonal Gaussians, analytic per coordinate.

    Both the mean and the sigma of the barycenter are the weighted arithmetic
    means of the members' parameters.
    """
    return _gaussian(*aggregate(family, "wb"))


def mopoe(family: WeightedFamily) -> WeightedFamily:
    """Mixture over the modality powerset of unit-exponent subset products."""
    return _mixture(*aggregate(family, "mopoe"))


def mwb(family: WeightedFamily) -> WeightedFamily:
    """Mixture over the modality powerset of subset Wasserstein barycenters."""
    return _mixture(*aggregate(family, "mwb"))


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
    Bures-Wasserstein objective (Chewi et al., 2020). Both stopping tiers
    measure the residual ||T(S) - S||_F against the iterate's own norm: it
    stops at the first S whose residual is at most 0.05 * tol * ||S||_F, or,
    after max_iter updates, at most tol * ||S||_F. tol must be finite and
    positive, and max_iter an integer of at least 0 (ValueError otherwise).

    The barycenter is 1-homogeneous in the covariances, so the iteration runs
    on them divided by s, the largest power of four at most their largest
    absolute entry, and returns s * S, so that no product overflows. Scaling
    by a power of four commutes with every rounding, square roots included,
    and the stopping rule has no unit of its own, so the result scales
    exactly with the covariances: multiplying every member covariance by 4^k
    multiplies the barycenter by 4^k, byte for byte, while both stay within
    the float range and above FullGaussian's eigenvalue floor.

    Ill-conditioned members can defeat the iteration in rounding: an iterate
    that turns indefinite, or a result below FullGaussian's eigenvalue
    floor, raises NumericError naming the iteration, as do a singular
    iterate and no convergence within max_iter.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer of at least 0, got {max_iter!r}")
    covs = [m.cov for m in family.members]
    lams = family.weights
    mean = np.zeros(family.dim)
    for lam, member in zip(lams, family.members):
        mean += lam * member.mean

    if family.size == 1:  # its own barycenter, without an iteration's rounding
        return FullGaussian(mean, sum(lam * c for lam, c in zip(lams, covs)))
    _, e = math.frexp(max(float(np.max(np.abs(c))) for c in covs))
    s = math.ldexp(1.0, 2 * ((e - 1) // 2))
    covs = [c / s for c in covs]
    cov = sum(lam * c for lam, c in zip(lams, covs))
    for iteration in range(max_iter + 1):
        try:
            root = sqrtm_psd(cov)
            mapped = np.zeros_like(cov)
            for lam, c in zip(lams, covs):
                a = root @ c @ root
                mapped += lam * sqrtm_psd((a + a.T) / 2.0)
        except NotPsdError as err:
            raise NumericError(
                f"barycenter iteration {iteration}: {err}", iterations=iteration
            ) from err
        residual = float(np.linalg.norm(mapped - cov))
        norm = float(np.linalg.norm(cov))
        # iterate well past tol so the returned point, not just its residual,
        # sits within tol of the fixed point
        if residual <= 0.05 * tol * norm or (
            iteration == max_iter and residual <= tol * norm
        ):
            try:
                return FullGaussian(mean, s * cov)
            except ValueError as err:
                raise NumericError(
                    f"barycenter at iteration {iteration}: {err}", iterations=iteration
                ) from err
        # S^{-1/2} T(S)^2 S^{-1/2} = X X^T with X = S^{-1/2} T(S)
        try:
            half = np.linalg.solve(root, mapped)
        except np.linalg.LinAlgError as err:
            raise NumericError(f"barycenter iterate became singular: {err}") from err
        cov = half @ half.T
    residual *= s
    raise NumericError(
        f"barycenter fixed point not reached in {max_iter} iterations "
        f"(residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


DIVERGENCES = ("forward_kl", "reverse_kl", "w2sq")


def barycenter_objective(weights, means, sigmas, q_mean, q_sigma, divergence: str) -> np.ndarray:
    """The weighted divergences from M diagonal experts to each of n candidates.

    weights is (M,); the experts' means and sigmas are M x n x d, row i of
    every expert facing candidate row i (broadcast views will do); the
    candidates q_mean and q_sigma are n x d. Returns the n values of
    sum_m weights[m] * D(expert m, q), the experts summed in order.
    forward_kl uses KL(expert || q) and reverse_kl KL(q || expert), each
    clamped at 0 per expert and row; w2sq is the squared 2-Wasserstein
    distance. A per-pair divergence is the one-expert, one-row case.
    """
    if divergence not in DIVERGENCES:
        raise ValueError(f"unknown divergence {divergence!r}; expected one of {DIVERGENCES}")
    weights, means, sigmas, q_mean, q_sigma = (
        np.asarray(a, dtype=np.float64) for a in (weights, means, sigmas, q_mean, q_sigma)
    )
    if not (
        weights.ndim == 1
        and q_mean.ndim == 2
        and q_sigma.shape == q_mean.shape
        and means.shape == sigmas.shape == (*weights.shape, *q_mean.shape)
    ):
        raise ValueError(
            "expected weights (M,), means and sigmas M x n x d, candidates n x d; got "
            f"{weights.shape}, {means.shape}, {sigmas.shape}, {q_mean.shape}, {q_sigma.shape}"
        )
    if divergence == "w2sq":
        terms = np.sum((means - q_mean) ** 2 + (sigmas - q_sigma) ** 2, axis=2)
    else:
        (p_mean, p_sigma), (r_mean, r_sigma) = (means, sigmas), (q_mean, q_sigma)
        if divergence == "reverse_kl":
            (p_mean, p_sigma), (r_mean, r_sigma) = (q_mean, q_sigma), (means, sigmas)
        # KL(p || r), summed over the d coordinates
        ratio = p_sigma / r_sigma
        terms = np.sum(
            np.log(r_sigma) - np.log(p_sigma)
            + 0.5 * (ratio * ratio + ((p_mean - r_mean) / r_sigma) ** 2 - 1.0),
            axis=2,
        )
        terms = np.maximum(terms, 0.0)
    total = np.zeros(q_mean.shape[0])
    for lam, term in zip(weights, terms):
        total += lam * term
    return total
