"""Reference computations made apart from the program, in plain numpy.

Each `check_*` function returns None when the program's output agrees with
the reference and a one-line reason when it does not. Nothing here imports
`baryvae`: the model constants below are the documented ones (the sigma floor
of `DiagGaussian`, the fixed sigma of the Gaussian likelihood).

Sources: the fixed-point characterisation of the Bures-Wasserstein barycenter
(Alvarez-Esteban, del Barrio, Cuesta-Albertos & Matran, J. Math. Anal. Appl.
2016) and the importance-weighted marginal-likelihood estimator (Burda,
Grosse & Salakhutdinov, "Importance Weighted Autoencoders", ICLR 2016).
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_FLOOR = 1e-6
GAUSSIAN_LIK_SIGMA = 0.75
LOG_2PI = math.log(2.0 * math.pi)

# Closed forms are compared to 1e-10 relative: the program and the reference
# sum in different orders, which moves results by a few ulp, while a shift of
# 1e-6 in any output must still be caught.
CLOSED_FORM_RTOL = 1e-10
CLOSED_FORM_ATOL = 1e-12
# `wb_full` stops once its residual is below 0.05 x its 1e-9 tolerance x
# (1 + ||S||_F), so that the returned point, not just its residual, is within
# the tolerance. Criterion 4's 1e-9 bound would still accept a covariance
# stopped up to four iterations early (the map contracts by about 0.5 per
# iteration); the program's own stopping point rejects one stopped even one
# iteration early.
WB_FULL_RESIDUAL = 0.05 * 1e-9
WB_FULL_DISTANCE = 1e-9
# Monte Carlo estimates must agree within this many standard errors.
MC_SIGMAS = 5.0
CHANCE = 0.1


# ---------------------------------------------------------------------------
# aggregation closed forms
# ---------------------------------------------------------------------------


def _poe(mus, sigmas):
    prec = np.sum(1.0 / sigmas**2, axis=0)
    mean = np.sum(mus / sigmas**2, axis=0) / prec
    return mean, np.sqrt(1.0 / prec)


def _wb(mus, sigmas, weights):
    return np.tensordot(weights, mus, axes=1), np.tensordot(weights, sigmas, axes=1)


def components(method, mus, sigmas, weights=None):
    """Joint posterior as [(weight, mean, sigma)] for stacked member parameters.

    mus and sigmas are (M, ...) arrays; the trailing axes are carried through,
    so a batch of examples (M, B, d) works as well as one document (M, d).
    Powerset mixtures run over subsets in ascending bitmask order and use the
    standard normal for the empty subset.
    """
    m = mus.shape[0]
    sigmas = np.maximum(sigmas, SIGMA_FLOOR)
    if weights is None:
        weights = np.full(m, 1.0 / m)
    if method == "poe":
        return [(1.0, *_poe(mus, sigmas))]
    if method == "wb":
        return [(1.0, *_wb(mus, sigmas, weights))]
    if method == "moe":
        return [(float(w), mus[i], sigmas[i]) for i, w in enumerate(weights)]
    if method not in ("mopoe", "mwb"):
        raise ValueError(f"unknown method {method!r}")
    out = []
    lam = 1.0 / (1 << m)
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if not idx:
            out.append((lam, np.zeros(mus.shape[1:]), np.ones(mus.shape[1:])))
        elif method == "mopoe":
            out.append((lam, *_poe(mus[idx], sigmas[idx])))
        else:
            out.append((lam, *_wb(mus[idx], sigmas[idx], np.full(len(idx), 1.0 / len(idx)))))
    return out


def _far(actual, expected, rtol=CLOSED_FORM_RTOL, atol=CLOSED_FORM_ATOL):
    """Largest excess of |actual - expected| over atol + rtol |expected|, or None."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return f"shape {actual.shape} != {expected.shape}"
    gap = np.abs(actual - expected) - (atol + rtol * np.abs(expected))
    if not np.all(np.isfinite(actual)) or np.any(gap > 0.0):
        return f"off by {float(np.max(np.abs(actual - expected))):.3e}"
    return None


def check_diag(doc, method, result):
    """Compare an `aggregate` result for diagonal experts with the closed form."""
    mus = np.array([p["mean"] for p in doc["posteriors"]], dtype=np.float64)
    sigmas = np.array([p["sigma"] for p in doc["posteriors"]], dtype=np.float64)
    weights = doc.get("weights")
    weights = None if weights is None else np.asarray(weights, dtype=np.float64)
    if result.get("method") != method:
        return f"method field {result.get('method')!r} != {method!r}"
    expected = components(method, mus, sigmas, weights)
    if method in ("poe", "wb"):
        (_, mean, sigma), = expected
        for key, want in (("mean", mean), ("sigma", sigma)):
            bad = _far(result.get(key, []), want)
            if bad:
                return f"{method} {key} {bad}"
        return None
    comps = result.get("components", [])
    if len(comps) != len(expected):
        return f"{method} has {len(comps)} components, expected {len(expected)}"
    bad = _far(result.get("weights", []), [w for w, _, _ in expected])
    if bad:
        return f"{method} weights {bad}"
    for k, (comp, (_, mean, sigma)) in enumerate(zip(comps, expected)):
        for key, want in (("mean", mean), ("sigma", sigma)):
            bad = _far(comp.get(key, []), want)
            if bad:
                return f"{method} component {k} {key} {bad}"
    return None


def psd_sqrt(a):
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def wb_fixed_point_map(s, covs, weights):
    """sum_m w_m (S^{1/2} S_m S^{1/2})^{1/2}, with roots from numpy.linalg.eigh."""
    root = psd_sqrt(s)
    return sum(w * psd_sqrt(root @ c @ root) for w, c in zip(weights, covs))


def wb_full_residual(s, covs, weights):
    """Fixed-point residual relative to 1 + ||S||_F."""
    return float(
        np.linalg.norm(wb_fixed_point_map(s, covs, weights) - s) / (1.0 + np.linalg.norm(s))
    )


def check_full(doc, result, closed_form=None):
    """Check a full-covariance `wb` result by its fixed-point residual.

    For commuting inputs the barycenter covariance is known in closed form;
    pass it as `closed_form` to compare against it as well.
    """
    mus = np.array([p["mean"] for p in doc["posteriors"]], dtype=np.float64)
    covs = [np.array(p["cov"], dtype=np.float64) for p in doc["posteriors"]]
    covs = [(c + c.T) / 2.0 for c in covs]
    weights = doc.get("weights")
    weights = np.full(len(covs), 1.0 / len(covs)) if weights is None else np.asarray(weights)
    if result.get("method") != "wb":
        return f"method field {result.get('method')!r} != 'wb'"
    bad = _far(result.get("mean", []), weights @ mus)
    if bad:
        return f"wb_full mean {bad}"
    s = np.array(result.get("cov", []), dtype=np.float64)
    if s.shape != covs[0].shape or not np.all(np.isfinite(s)):
        return f"wb_full covariance has shape {s.shape} or is not finite"
    if not np.array_equal(s, s.T):
        return "wb_full covariance is not symmetric"
    residual = wb_full_residual(s, covs, weights)
    if not residual <= WB_FULL_RESIDUAL:
        return f"wb_full fixed-point residual {residual:.3e} > {WB_FULL_RESIDUAL:.1e}"
    if closed_form is not None:
        gap = float(np.linalg.norm(s - closed_form) / (1.0 + np.linalg.norm(s)))
        if not gap <= WB_FULL_DISTANCE:
            return f"wb_full differs from the commuting closed form by {gap:.3e}"
    return None


def commuting_barycenter(rotation, eigenvalues, weights):
    """Barycenter of Q diag(e_m) Q^T: Q diag((sum_m w_m sqrt(e_m))^2) Q^T."""
    root = np.tensordot(weights, np.sqrt(eigenvalues), axes=1)
    return (rotation * root**2) @ rotation.T


# ---------------------------------------------------------------------------
# training objective
# ---------------------------------------------------------------------------


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def mlp(params, prefix, x, layers, head):
    h = x
    for i in range(layers):
        h = np.tanh(h @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"])
    return h @ params[f"{prefix}.{head}_w"] + params[f"{prefix}.{head}_b"]


def encode(params, layers, m, x):
    mu = mlp(params, f"enc{m}", x, layers, "mu")
    sigma = _softplus(mlp(params, f"enc{m}", x, layers, "sigma")) + SIGMA_FLOOR
    return mu, sigma


def log_lik(likelihood, out, x):
    """log p(x | decoder output), summed over the last axis."""
    if likelihood == "bernoulli":
        return np.sum(x * out - _softplus(out), axis=-1)
    sq = (x - out) ** 2 / (2.0 * GAUSSIAN_LIK_SIGMA**2)
    return np.sum(-0.5 * LOG_2PI - math.log(GAUSSIAN_LIK_SIGMA) - sq, axis=-1)


def elbo_reference(params, model, batch, noise):
    """(loss, terms) of the training objective for one batch and its noise.

    loss = -sum_m recon_m + beta * kl, where kl is the component-weighted
    closed-form KL of each joint-posterior component to N(0, I), recon_m the
    component-weighted log-likelihood of modality m at one reparameterised
    draw per component, both averaged over the batch.
    """
    layers = len(model["hidden"])
    b = batch[0].shape[0]
    enc = [encode(params, layers, m, x) for m, x in enumerate(batch)]
    comps = components(
        model["aggregation"], np.stack([e[0] for e in enc]), np.stack([e[1] for e in enc])
    )
    kl = sum(
        lam * 0.5 * np.sum(mu**2 + sigma**2 - 2.0 * np.log(sigma) - 1.0) / b
        for lam, mu, sigma in comps
    )
    terms = {}
    for m, x in enumerate(batch):
        recon = 0.0
        for k, (lam, mu, sigma) in enumerate(comps):
            out = mlp(params, f"dec{m}", mu + sigma * noise[k], layers, "out")
            recon += lam * np.sum(log_lik(model["likelihood"], out, x)) / b
        terms[f"recon_mod{m}"] = float(recon)
    terms["kl"] = float(kl)
    loss = -sum(terms[f"recon_mod{m}"] for m in range(len(batch))) + model["beta"] * kl
    return float(loss), terms


def check_first_step(reference, loss, terms, rtol=CLOSED_FORM_RTOL):
    ref_loss, ref_terms = reference
    pairs = [("loss", loss, ref_loss)]
    pairs += [(k, terms.get(k, math.nan), v) for k, v in ref_terms.items()]
    for name, got, want in pairs:
        if not abs(got - want) <= rtol * max(1.0, abs(want)):
            return f"first step {name} {got!r} != reference {want!r}"
    return None


def check_history(histories):
    """Every call gives the same per-epoch losses, and the last is below the first."""
    first = histories[0]
    for h in histories[1:]:
        if h != first:
            return "training reruns with one seed gave different per-epoch losses"
    if not first[-1] < first[0]:
        return f"last epoch loss {first[-1]!r} is not below the first {first[0]!r}"
    return None


def check_same(label, got, want):
    """Bit-for-bit equality of two lists of floats."""
    if list(got) != list(want):
        return f"{label}: {list(got)!r} != {list(want)!r}"
    return None


# ---------------------------------------------------------------------------
# importance-sampled log-likelihood
# ---------------------------------------------------------------------------


def linear_gaussian_marginal(out_w, out_b, x):
    """Mean log N(x; b, W W^T + s^2 I) for x = z W + b + noise, z ~ N(0, I)."""
    cov = out_w.T @ out_w + GAUSSIAN_LIK_SIGMA**2 * np.eye(out_w.shape[1])
    _, logdet = np.linalg.slogdet(cov)
    diff = x - out_b
    quad = np.sum(diff * np.linalg.solve(cov, diff.T).T, axis=1)
    return float(np.mean(-0.5 * (quad + logdet + cov.shape[0] * LOG_2PI)))


def importance_estimate(params, model, batch, num_samples, rng):
    """Own importance-sampled log p(X), full-subset proposal, per example.

    Returns (estimates, standard errors) per example, the error for
    `num_samples` draws by the delta method on the normalised weights; the
    standard error for n draws is se * sqrt(num_samples / n).
    """
    layers = len(model["hidden"])
    enc = [encode(params, layers, m, x) for m, x in enumerate(batch)]
    comps = components(
        model["aggregation"], np.stack([e[0] for e in enc]), np.stack([e[1] for e in enc])
    )
    lams = np.array([c[0] for c in comps])
    mus = np.stack([c[1] for c in comps])
    sigmas = np.stack([c[2] for c in comps])
    d = mus.shape[2]
    estimates, errors = [], []
    for i in range(batch[0].shape[0]):
        comp = np.minimum(
            np.searchsorted(np.cumsum(lams), rng.random(num_samples), side="right"),
            len(lams) - 1,
        )
        z = mus[comp, i] + sigmas[comp, i] * rng.standard_normal((num_samples, d))
        diffs = (z[None] - mus[:, i, None, :]) / sigmas[:, i, None, :]
        comp_log = (
            -0.5 * np.sum(diffs**2, axis=2)
            - np.sum(np.log(sigmas[:, i]), axis=1)[:, None]
            - 0.5 * d * LOG_2PI
            + np.log(lams)[:, None]
        )
        top = comp_log.max(axis=0)
        log_q = top + np.log(np.sum(np.exp(comp_log - top), axis=0))
        log_p = -0.5 * np.sum(z**2, axis=1) - 0.5 * d * LOG_2PI
        for m, x in enumerate(batch):
            out = mlp(params, f"dec{m}", z, layers, "out")
            log_p = log_p + log_lik(model["likelihood"], out, x[i][None, :])
        logw = log_p - log_q
        peak = logw.max()
        w = np.exp(logw - peak)
        estimates.append(peak + math.log(np.mean(w)))
        errors.append(float(np.std(w) / np.mean(w) / math.sqrt(num_samples)))
    return np.array(estimates), np.array(errors)


def check_estimate(label, got, want, se):
    """|got - want| within MC_SIGMAS standard errors."""
    if not (math.isfinite(got) and abs(got - want) <= MC_SIGMAS * se):
        return f"{label}: {got!r} vs {want!r}, more than {MC_SIGMAS:g} x SE {se:.2e} apart"
    return None


def check_above_chance(label, values):
    low = min(values)
    if not low > CHANCE:
        return f"{label} {low!r} is not above the {CHANCE} chance level"
    return None


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------


def rejected(code, stderr):
    """A malformed document must end with exit 2 and a one-line message."""
    return code == 2 and stderr.startswith("error: ") and "Traceback" not in stderr
