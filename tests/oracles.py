"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's closed forms and density code: KL by
direct quadrature of p log(p/q), entropies by quadrature of -p log p,
products of densities on a grid, and squared 2-Wasserstein distances by
inverting quadrature CDFs (1-D) or from eigendecomposition square roots
(full covariance). Every density here is `proposal_log_density` on stacked
arrays, so none shares a route with `baryvae.gaussian`. They are the
independent side of every dual-route check. The network's forward pass is
restated here in plain numpy, independently of the diffgraph nodes the
model runs.
"""

import math

import numpy as np

from baryvae.barycenter import WeightedFamily
from baryvae.gaussian import SIGMA_FLOOR, DiagGaussian, FullGaussian

# Quantile-oracle resolution: a uniform core grid of 20001 points on
# [5e-5, 1 - 5e-5], extended by log-spaced ladders down to 1e-8 in each tail
# so that sigma-dominated pairs are resolved to ~1e-5 relative accuracy.
QUANTILE_CORE_POINTS = 20001
QUANTILE_CORE_EDGE = 5e-5
QUANTILE_TAIL_FLOOR = 1e-8
QUANTILE_TAIL_POINTS = 200
QUANTILE_BISECT_TOL = 1e-10


class OracleError(RuntimeError):
    """A brute-force oracle met inconsistent input or did not settle."""


def stacked_arrays(g):
    """(weights K, means K x d, sigmas K x d) of a DiagGaussian or WeightedFamily."""
    if isinstance(g, DiagGaussian):
        return np.ones(1), g.mean[None, :], g.sigma[None, :]
    comps = g.members
    return g.weights, np.stack([c.mean for c in comps]), np.stack([c.sigma for c in comps])


def objective_arrays(g, candidates):
    """`barycenter_objective`'s arrays for the experts g against n DiagGaussian candidates.

    g is a DiagGaussian (one expert of weight 1) or a WeightedFamily. Returns
    (weights M, means and sigmas as M x n x d broadcast views, q_mean and
    q_sigma n x d).
    """
    weights, means, sigmas = stacked_arrays(g)
    shape = (len(weights), len(candidates), means.shape[1])
    return (
        weights,
        np.broadcast_to(means[:, None], shape),
        np.broadcast_to(sigmas[:, None], shape),
        np.stack([c.mean for c in candidates]),
        np.stack([c.sigma for c in candidates]),
    )


def log_density_1d(g, xs):
    """Log density of a 1-D DiagGaussian or WeightedFamily at the points xs."""
    return proposal_log_density(*stacked_arrays(g), xs[:, None])


def quad_grid(dists, pad_sigmas=12.0, step=1e-3):
    """A 1-D quadrature grid covering every distribution's effective support."""
    los, his, scales = [], [], []
    for g in dists:
        comps = g.members if hasattr(g, "members") else (g,)
        for c in comps:
            los.append(float(c.mean[0] - pad_sigmas * c.sigma[0]))
            his.append(float(c.mean[0] + pad_sigmas * c.sigma[0]))
            scales.append(float(c.sigma[0]))
    lo, hi = min(los), max(his)
    n = int(np.ceil((hi - lo) / (step * min(scales)))) + 1
    return np.linspace(lo, hi, min(n, 400_001))


def quad_kl_1d(p, q, xs=None):
    """KL(p || q) for 1-D distributions by trapezoid quadrature."""
    if xs is None:
        xs = quad_grid([p, q])
    lp = log_density_1d(p, xs)
    lq = log_density_1d(q, xs)
    pd = np.exp(lp)
    integrand = np.where(pd > 0.0, pd * (lp - lq), 0.0)
    return float(np.trapezoid(integrand, xs))


def grid_product_gaussian(experts, exponents, xs=None):
    """Normalized product of 1-D Gaussian densities raised to exponents.

    Returns the (mean, sigma) of the normalized product measured on the grid.
    """
    if xs is None:
        xs = quad_grid(experts)
    log_prod = np.zeros_like(xs)
    for g, a in zip(experts, exponents):
        log_prod += a * log_density_1d(g, xs)
    log_prod -= log_prod.max()
    dens = np.exp(log_prod)
    dens /= np.trapezoid(dens, xs)
    mean = float(np.trapezoid(xs * dens, xs))
    var = float(np.trapezoid((xs - mean) ** 2 * dens, xs))
    return mean, float(np.sqrt(var))


def _quantile_u_grid():
    lo = np.geomspace(QUANTILE_TAIL_FLOOR, QUANTILE_CORE_EDGE, QUANTILE_TAIL_POINTS, endpoint=False)
    core = np.linspace(QUANTILE_CORE_EDGE, 1.0 - QUANTILE_CORE_EDGE, QUANTILE_CORE_POINTS)
    return np.concatenate([lo, core, (1.0 - lo)[::-1]])


def _cdf_table(g, n_points=40001):
    """Tabulated CDF of a 1-D density-evaluable distribution by quadrature.

    Gaussians and mixtures are handled natively; any other object must expose
    support() -> (lo, hi) and pdf(xs) -> densities.
    """
    if hasattr(g, "support") and hasattr(g, "pdf"):
        lo, hi = g.support()
        xs = np.linspace(float(lo), float(hi), n_points)
        pdf = np.asarray(g.pdf(xs), dtype=np.float64)
    else:
        _, means, sigmas = stacked_arrays(g)
        if means.shape[1] != 1:
            raise ValueError("quantile oracle handles 1-D distributions only")
        lo = float(np.min(means - 10.0 * sigmas))
        hi = float(np.max(means + 10.0 * sigmas))
        xs = np.linspace(lo, hi, n_points)
        pdf = np.exp(log_density_1d(g, xs))
    h = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * (h / 2.0))])
    if np.any(np.diff(cdf) < -1e-12):
        raise OracleError("quadrature CDF is non-monotone")
    total = cdf[-1]
    if not (0.99 < total < 1.01):
        raise OracleError(f"quadrature CDF mass {total!r} is not close to 1")
    return xs, cdf / total


def _invert_cdf(xs, cdf, u):
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


def w2sq_1d_quantile(p, q):
    """Brute-force squared 2-Wasserstein distance between 1-D distributions.

    Integrates (F_p^{-1}(u) - F_q^{-1}(u))^2 over the quantile grid, with the
    CDFs built by density quadrature and inverted by bisection. For two
    Gaussians this matches the closed-form W2 to better than 1e-4 relative.
    """
    u = _quantile_u_grid()
    fp = _invert_cdf(*_cdf_table(p), u)
    fq = _invert_cdf(*_cdf_table(q), u)
    return max(float(np.trapezoid((fp - fq) ** 2, u)), 0.0)


def random_spd(rng, dim, lo=0.3, hi=3.0):
    """A random SPD matrix with eigenvalues in [lo, hi]."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    w = rng.uniform(lo, hi, dim)
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


def random_full_families(rng, count):
    """`count` uniform-weight families of full Gaussians with random SPD covariances.

    Each family draws its dim from 2..8 and its size from 2..5.
    """
    for _ in range(count):
        dim, size = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        yield WeightedFamily.uniform(
            [FullGaussian(rng.standard_normal(dim), random_spd(rng, dim)) for _ in range(size)]
        )


def _eigh_sqrt(a):
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def w2sq_full(p, q):
    """Squared 2-Wasserstein distance between full-covariance Gaussians.

    |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}), with every
    root taken from numpy.linalg.eigh; symmetric in its arguments despite
    the asymmetric-looking trace term.
    """
    s1, s2 = p.cov, q.cov
    r1 = _eigh_sqrt(s1)
    cross = _eigh_sqrt(r1 @ s2 @ r1)
    val = float(np.sum((p.mean - q.mean) ** 2))
    val += float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def plain_wb_fixed_point(covs, weights):
    """Bures-Wasserstein barycenter covariance by the plain map S <- T(S).

    T(S) = sum_m w_m (S^{1/2} S_m S^{1/2})^{1/2}, with every root taken from
    numpy.linalg.eigh. Iterates from the arithmetic mean until
    ||T(S) - S||_F <= 1e-12 * ||S||_F and returns T(S).
    """
    s = sum(w * c for w, c in zip(weights, covs))
    for _ in range(10_000):
        root = _eigh_sqrt(s)
        nxt = sum(w * _eigh_sqrt(root @ c @ root) for w, c in zip(weights, covs))
        if np.linalg.norm(nxt - s) <= 1e-12 * np.linalg.norm(s):
            return nxt
        s = (nxt + nxt.T) / 2.0
    raise OracleError("plain barycenter map did not settle in 10000 iterations")


def oracle_components(method, mus, sigmas, weights):
    """Joint-posterior components [(weight, mean, sigma)] by per-subset loops.

    mus and sigmas list the M experts' equal-shape arrays. poe is the plain
    product, wb the weights-weighted average of means and sigmas, moe the
    experts with the weights, and mopoe / mwb the uniform mixture over the
    powerset in ascending bitmask order, the empty subset giving N(0, I) and
    each other subset the product / uniform average of its members.
    """

    def product(idx):
        prec = np.zeros(mus[0].shape)
        weighted = np.zeros(mus[0].shape)
        for i in idx:
            p = 1.0 / sigmas[i] ** 2
            prec += p
            weighted += p * mus[i]
        var = 1.0 / prec
        return var * weighted, np.sqrt(var)

    def average(idx, lams):
        mean = np.zeros(mus[0].shape)
        sigma = np.zeros(mus[0].shape)
        for i, lam in zip(idx, lams):
            mean += lam * mus[i]
            sigma += lam * sigmas[i]
        return mean, sigma

    m = len(mus)
    if method == "poe":
        return [(1.0, *product(range(m)))]
    if method == "wb":
        return [(1.0, *average(range(m), weights))]
    if method == "moe":
        return [(weights[i], mus[i], sigmas[i]) for i in range(m)]
    out = []
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if not idx:
            comp = (np.zeros(mus[0].shape), np.ones(mus[0].shape))
        elif method == "mopoe":
            comp = product(idx)
        else:
            comp = average(idx, [1.0 / len(idx)] * len(idx))
        out.append((1.0 / (1 << m), *comp))
    return out


def random_diag_gaussian(rng, dim, mean_scale=3.0, sigma_lo=0.3, sigma_hi=2.5):
    return DiagGaussian(
        rng.uniform(-mean_scale, mean_scale, dim), rng.uniform(sigma_lo, sigma_hi, dim)
    )


def proposal_log_density(weights, means, sigmas, xs):
    """Mixture log density as the importance sampler first spelled it out.

    K weights, K x d means and sigmas, n x d points; one log-sum-exp over
    the components, shifted by their maximum.
    """
    d = means.shape[1]
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    diffs = (xs[None, :, :] - means[:, None, :]) / sigmas[:, None, :]
    comp_logpdf = (
        -0.5 * np.sum(diffs**2, axis=2)
        - np.sum(np.log(sigmas), axis=1)[:, None]
        - 0.5 * d * math.log(2.0 * math.pi)
    )
    stacked = comp_logpdf + logw[:, None]
    top = stacked.max(axis=0)
    return top + np.log(np.sum(np.exp(stacked - top), axis=0))


def diag_log_density(g, xs):
    """Closed-form log density of a DiagGaussian at the rows of xs."""
    z = (xs - g.mean) / g.sigma
    log_2pi = math.log(2.0 * math.pi)
    return -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(g.sigma)) - 0.5 * g.dim * log_2pi


def softplus_inv(y):
    return np.log(np.expm1(y))


def linear_gaussian_vae(sigma_enc_scale=1.2, seed=13):
    """A conjugate 1-D model whose marginal likelihood is known in closed form.

    Latent z ~ N(0, I_2), observation x | z ~ N(w.z + b, s^2) with a linear
    decoder, so x ~ N(b, |w|^2 + s^2). The decoder reads only the first latent
    coordinate, which keeps the true posterior diagonal, so the affine encoder
    can hold it exactly; its sigma is inflated by `sigma_enc_scale` (set 1.0
    for the exact posterior). Returns (vae, marginal mean, marginal variance).
    """
    import baryvae.mmvae as mm

    config = mm.ModelConfig(
        num_modalities=1,
        input_dims=(1,),
        latent_dim=2,
        hidden=(),
        likelihood="gaussian",
        aggregation="wb",
        beta=1.0,
        seed=5,
    )
    vae = mm.MultimodalVae(config)
    rng = np.random.default_rng(seed)
    w = np.array([[float(rng.uniform(0.4, 0.9))], [0.0]])
    b = np.array([0.3])
    vae.store.params["dec0.out_w"][:] = w
    vae.store.params["dec0.out_b"][:] = b
    s2 = mm.GAUSSIAN_LIK_SIGMA**2
    prec = np.eye(2) + (w @ w.T) / s2
    cov = np.linalg.inv(prec)
    a_map = (cov @ w) / s2
    vae.store.params["enc0.mu_w"][:] = a_map.T
    vae.store.params["enc0.mu_b"][:] = (-a_map * b).ravel()
    sig = np.sqrt(np.diag(cov)) * sigma_enc_scale
    vae.store.params["enc0.sigma_w"][:] = 0.0
    vae.store.params["enc0.sigma_b"][:] = softplus_inv(sig - 1e-6)
    marginal_var = float((w.T @ w)[0, 0]) + s2
    return vae, float(b[0]), marginal_var


def numpy_encode(params, config, m, x):
    """Modality m's posterior (mu, sigma) by a plain numpy forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(config.hidden)):
        h = np.tanh(h @ params[f"enc{m}.w{i}"] + params[f"enc{m}.b{i}"])
    mu = h @ params[f"enc{m}.mu_w"] + params[f"enc{m}.mu_b"]
    pre = h @ params[f"enc{m}.sigma_w"] + params[f"enc{m}.sigma_b"]
    sigma = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre))) + SIGMA_FLOOR
    return mu, sigma


def numpy_decode(params, config, m, z):
    """Modality m's raw decoder output by a plain numpy forward pass."""
    h = np.asarray(z, dtype=np.float64)
    for i in range(len(config.hidden)):
        h = np.tanh(h @ params[f"dec{m}.w{i}"] + params[f"dec{m}.b{i}"])
    return h @ params[f"dec{m}.out_w"] + params[f"dec{m}.out_b"]


def masked_sigmoid(x):
    """1 / (1 + exp(-x)), each branch evaluated only where it cannot overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def numpy_log_lik(out, x, likelihood, sigma):
    """log p(x | decoder output row) for each row of `out`."""
    if likelihood == "bernoulli":
        softplus = np.maximum(out, 0.0) + np.log1p(np.exp(-np.abs(out)))
        return np.sum(x[None, :] * out - softplus, axis=1)
    const = -0.5 * math.log(2.0 * math.pi) - math.log(sigma)
    return np.sum(const - (x[None, :] - out) ** 2 / (2.0 * sigma**2), axis=1)


def linear_gaussian_pair(aggregation, sigma_enc_scale=1.3, seed=11):
    """A conjugate 2-modality model whose joint marginal is known in closed form.

    Latent z ~ N(0, I_2), x_m = z W_m + b_m + N(0, s^2 I) for input dims 2
    and 3, with linear Gaussian decoders, so X = (x_0, x_1) ~ N(b, W^T W +
    s^2 I) for W = [W_0 W_1] and b = [b_0 b_1]. Each affine encoder holds the
    exact posterior mean given its own modality and that posterior's
    marginal sigmas inflated by `sigma_enc_scale`. Returns (vae, W, b).
    """
    import baryvae.mmvae as mm

    dims, d = (2, 3), 2
    config = mm.ModelConfig(
        num_modalities=2,
        input_dims=dims,
        latent_dim=d,
        hidden=(),
        likelihood="gaussian",
        aggregation=aggregation,
        seed=5,
    )
    vae = mm.MultimodalVae(config)
    params = vae.store.params
    rng = np.random.default_rng(seed)
    s2 = mm.GAUSSIAN_LIK_SIGMA**2
    for m, dim in enumerate(dims):
        w = rng.normal(0.0, 1.0, (d, dim))
        b = rng.normal(0.0, 0.5, dim)
        cov = np.linalg.inv(np.eye(d) + w @ w.T / s2)
        params[f"dec{m}.out_w"][:] = w
        params[f"dec{m}.out_b"][:] = b
        params[f"enc{m}.mu_w"][:] = w.T @ cov / s2
        params[f"enc{m}.mu_b"][:] = -b @ (w.T @ cov / s2)
        params[f"enc{m}.sigma_w"][:] = 0.0
        sig = np.sqrt(np.diag(cov)) * sigma_enc_scale
        params[f"enc{m}.sigma_b"][:] = softplus_inv(sig - SIGMA_FLOOR)
    w = np.concatenate([params["dec0.out_w"], params["dec1.out_w"]], axis=1)
    b = np.concatenate([params["dec0.out_b"], params["dec1.out_b"]])
    return vae, w, b


def linear_gaussian_log_marginal(w, b, sigma, x):
    """log N(x; b, W^T W + sigma^2 I) for each row of x, by a Cholesky factor."""
    cov = w.T @ w + sigma**2 * np.eye(w.shape[1])
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, (x - b).T)
    return (
        -0.5 * np.sum(white**2, axis=0)
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * w.shape[1] * math.log(2.0 * math.pi)
    )


def importance_weight_cv(vae, batch, members, samples, rng):
    """Per-example coefficient of variation std(w) / mean(w) of the weights
    w = p(X, z) / q(z) with z ~ q, the `members` subset's joint posterior.

    Everything is restated here: the encoders by `numpy_encode`, q by
    `oracle_components` (uniform weights over the members) and
    `proposal_log_density`, p(X | z) by `numpy_decode` and `numpy_log_lik`,
    each over `samples` draws from `rng`. The delta method then gives the
    standard error of log(mean w) over K draws as cv / sqrt(K) (Owen,
    Monte Carlo theory, ch. 9), and its downward bias as about cv^2 / (2 K).
    """
    import baryvae.mmvae as mm

    config, params = vae.config, vae.store.params
    encoded = [numpy_encode(params, config, m, batch[m]) for m in members]
    lams = np.full(len(members), 1.0 / len(members))
    comps = oracle_components(
        config.aggregation, [e[0] for e in encoded], [e[1] for e in encoded], lams
    )
    weights = np.array([c[0] for c in comps])
    d = config.latent_dim
    cvs = []
    for i in range(batch[0].shape[0]):
        means = np.stack([c[1][i] for c in comps])
        sigmas = np.stack([c[2][i] for c in comps])
        pick = rng.choice(len(weights), size=samples, p=weights)
        z = means[pick] + sigmas[pick] * rng.standard_normal((samples, d))
        log_w = -0.5 * np.sum(z * z, axis=1) - 0.5 * d * math.log(2.0 * math.pi)
        log_w -= proposal_log_density(weights, means, sigmas, z)
        for m, x in enumerate(batch):
            out = numpy_decode(params, config, m, z)
            log_w += numpy_log_lik(out, x[i], config.likelihood, mm.GAUSSIAN_LIK_SIGMA)
        w = np.exp(log_w - log_w.max())
        cvs.append(np.std(w) / np.mean(w))
    return np.array(cvs)
