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
is the table's last column. `combine` applies a table with one diffgraph
primitive, so training graphs, batched evaluation arrays and the
per-example kernels below share one implementation. `barycenter_objective`
evaluates the underlying weighted objective so optimality and stationarity
can be tested directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .errors import NumericError
from .gaussian import SIGMA_FLOOR, DiagGaussian, FullGaussian, WeightedFamily
from .gaussian import kl_diag, w2sq_diag
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


def combine(rows, natural: bool, mus, sigmas):
    """The table's components from expert parameters.

    mus and sigmas list M+1 equal-shape n x d entries, the prior last. Raw
    arrays give arrays, and diffgraph Values, as in training, give tape
    nodes. Returns (mean, sigma), each (K n) x d with the components stacked
    component-major.
    """
    if not natural:
        return dg.mix(rows, mus), dg.mix(rows, sigmas)
    precs = [dg.reciprocal(dg.square(s)) for s in sigmas]
    var = dg.reciprocal(dg.mix(rows, precs))
    weighted = dg.mix(rows, [dg.mul(p, mu) for p, mu in zip(precs, mus)])
    return dg.mul(var, weighted), dg.sqrt(var)


def _components(rows, natural: bool, family: WeightedFamily):
    """The table's components for one example, as DiagGaussians."""
    members = (*family.members, DiagGaussian(np.zeros(family.dim), np.ones(family.dim)))
    mean, sigma = combine(
        rows, natural, [g.mean[None] for g in members], [g.sigma[None] for g in members]
    )
    # floored here once, so no component floors its own sigma again
    sigma = np.maximum(sigma, SIGMA_FLOOR)
    return tuple(DiagGaussian(mu, s) for mu, s in zip(mean, sigma))


def poe(family: WeightedFamily, exponents=None) -> DiagGaussian:
    """Product of experts: normalized product of members raised to `exponents`.

    The result is the precision-weighted Gaussian. With exponents equal to the
    family weights this is the reverse-KL barycenter; unit exponents (the
    default, the `poe` table) give the plain product of experts.
    """
    _, rows, natural = mixing("poe", family.weights)
    if exponents is not None:
        alphas = np.asarray(exponents, dtype=np.float64)
        if alphas.shape != (family.size,):
            raise ValueError("exponents length must match family size")
        if np.any(alphas < 0.0):
            raise ValueError("exponents must be nonnegative")
        if not np.any(alphas > 0.0):
            raise ValueError("at least one exponent must be positive")
        rows = np.append(alphas, 0.0)[None]
    return _components(rows, natural, family)[0]


def moe(family: WeightedFamily) -> WeightedFamily:
    """Mixture of experts: the forward-KL barycenter is the family itself."""
    return family


def wb_diag(family: WeightedFamily) -> DiagGaussian:
    """Wasserstein barycenter of diagonal Gaussians, analytic per coordinate.

    Both the mean and the sigma of the barycenter are the weighted arithmetic
    means of the members' parameters.
    """
    _, rows, natural = mixing("wb", family.weights)
    return _components(rows, natural, family)[0]


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
    covs = [m.cov for m in family.members]
    lams = family.weights
    mean = np.zeros(family.dim)
    for lam, member in zip(lams, family.members):
        mean += lam * member.mean

    cov = sum(lam * c for lam, c in zip(lams, covs))
    if family.size == 1:  # its own barycenter; iterating could overflow
        return FullGaussian(mean, cov)
    for iteration in range(max_iter + 1):
        root = sqrtm_psd(cov)
        mapped = np.zeros_like(cov)
        for lam, c in zip(lams, covs):
            a = root @ c @ root
            mapped += lam * sqrtm_psd((a + a.T) / 2.0)
        residual = float(np.linalg.norm(mapped - cov))
        scale = 1.0 + float(np.linalg.norm(cov))
        # iterate well past tol so the returned point, not just its residual,
        # sits within tol of the fixed point
        if residual <= 0.05 * tol * scale:
            return FullGaussian(mean, cov)
        if iteration == max_iter and residual <= tol * scale:
            return FullGaussian(mean, cov)
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


def _powerset(method: str, family: WeightedFamily) -> WeightedFamily:
    weights, rows, natural = mixing(method, family.weights)
    return WeightedFamily(_components(rows, natural, family), weights)


def mopoe(family: WeightedFamily) -> WeightedFamily:
    """Mixture over the modality powerset of unit-exponent subset products."""
    return _powerset("mopoe", family)


def mwb(family: WeightedFamily) -> WeightedFamily:
    """Mixture over the modality powerset of subset Wasserstein barycenters."""
    return _powerset("mwb", family)


def aggregate(family: WeightedFamily, method: str):
    """The joint posterior of `family` under `method`, one of METHODS.

    A DiagGaussian for poe and wb, a WeightedFamily for moe, mopoe and mwb,
    and for a full-covariance family, which supports wb only, the
    FullGaussian of `wb_full`. The powerset mixtures use the N(0, I) prior
    for their empty subset. The kernels are called through this
    module's globals, so a wrapper installed on the module sees every call.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if isinstance(family.members[0], FullGaussian):
        if method != "wb":
            raise ValueError(
                f"method {method!r} supports diagonal posteriors only; "
                "full-covariance inputs support 'wb'"
            )
        return wb_full(family)
    if method == "poe":
        return poe(family)
    if method == "moe":
        return moe(family)
    if method == "wb":
        return wb_diag(family)
    return (mopoe if method == "mopoe" else mwb)(family)


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
