"""Evaluation protocols: latent linear probes, cross-modal coherence, and
importance-sampled test log-likelihood.

The probe is a multinomial logistic regression trained by deterministic
full-batch gradient descent on (up to) `probe_samples` aggregated-posterior
means; the same machinery doubles as the raw-pixel reference classifier used
to score cross-modal generation coherence.

`evaluate_model` scores the modality subsets independently, on one pool
thread per CPU (`diffgraph._map_in_order`); every output is the same
whatever the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mmvae
from .barycenter import SubsetIndex, subsets
from .diffgraph import _map_in_order, keep_heap_mapped, rng_stream
from .errors import NumericError
from .gaussian import mixture_log_density

PROBE_L2 = 1e-3
PROBE_ITERS = 500
PROBE_LR = 0.5

_TAG_PROBE = 31
_TAG_COHERENCE = 32
_TAG_LOGLIK = 33


@dataclass
class LinearProbe:
    """Multinomial logistic regression in raw feature coordinates."""

    weights: np.ndarray = field()
    bias: np.ndarray = field()
    trained_on: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("probe parameters must be finite")

    def logits(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"feature dim {features.shape} does not match probe "
                f"{self.weights.shape}"
            )
        return features @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=1)


def fit_linear_probe(latents: np.ndarray, labels: np.ndarray) -> LinearProbe:
    """Fit the probe by full-batch gradient descent with a fixed step.

    Features are standardized internally and the learned map is folded back
    into raw coordinates, so the returned probe applies directly to new data.
    Deterministic: zero initialization, fixed step PROBE_LR, PROBE_ITERS
    updates with L2 penalty PROBE_L2. Raises NumericError if the fit is not
    finite (latents that overflow it, say).
    """
    x = np.asarray(latents, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("latents must be (n, d) with one label per row")
    classes = int(y.max()) + 1
    if np.unique(y).size < 2:
        raise ValueError("need at least two distinct labels to fit a probe")
    n, d = x.shape
    mean = x.mean(axis=0)
    scale = x.std(axis=0) + 1e-8
    xs = (x - mean) / scale
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), y] = 1.0

    w = np.zeros((classes, d))
    b = np.zeros(classes)
    for _ in range(PROBE_ITERS):
        logits = xs @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= PROBE_LR * (g.T @ xs + PROBE_L2 * w)
        b -= PROBE_LR * g.sum(axis=0)

    w_raw = w / scale[None, :]
    b_raw = b - w_raw @ mean
    if not (np.isfinite(w_raw).all() and np.isfinite(b_raw).all()):
        raise NumericError("linear probe fit is not finite")
    return LinearProbe(w_raw, b_raw, trained_on=n)


def latent_accuracy(probe: LinearProbe, latents: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions matching the labels."""
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if latents.shape[0] == 0:
        raise ValueError("empty evaluation set")
    if labels.shape != (latents.shape[0],):
        raise ValueError("labels length must match latents")
    return float(np.mean(probe.predict(latents) == labels))


def latent_means(vae, encoded, subset: SubsetIndex) -> np.ndarray:
    """Aggregated-posterior mean per example (weighted over mixture parts) of
    `encoded`, the output of mmvae.encode_arrays."""
    weights, mus, _ = mmvae.aggregate_arrays(vae, encoded, subset)
    return np.tensordot(weights, mus, axes=(0, 0))


def coherence(
    vae,
    encoded,
    labels: np.ndarray,
    reference_classifiers,
    source: SubsetIndex,
    target: int,
    num_samples: int,
    seed: int,
) -> float:
    """Fraction of generated target samples classified as the source's label.

    `encoded` is the output of mmvae.encode_arrays for the examples that
    `labels` labels; generation runs on a seeded draw of its rows.
    """
    if source.is_empty:
        raise ValueError("source subset must be non-empty")
    if target not in reference_classifiers:
        raise ValueError(f"no reference classifier for modality {target}")
    rng = rng_stream(seed, _TAG_COHERENCE, source.mask, target)
    n = min(num_samples, len(labels))
    idx = rng.choice(len(labels), size=n, replace=False)
    rows = [(mu[idx], sigma[idx]) for mu, sigma in encoded]
    eps = rng.standard_normal((n, vae.config.latent_dim))
    comp_u = rng.random(n)
    generated = mmvae.conditional_generate(vae, rows, source, target, eps, component_u=comp_u)
    predictions = reference_classifiers[target].predict(generated)
    return float(np.mean(predictions == labels[idx]))


def test_log_likelihood(vae, batch, subset: SubsetIndex, num_samples: int, seed: int) -> float:
    """Importance-sampled joint log-likelihood, mean nats per example.

    For each example, z are drawn ancestrally from the subset-aggregated
    posterior and log p(X) is estimated as
    logsumexp(log p(X|z) + log p(z) - log q(z)) - log(num_samples).
    """
    return _log_likelihood(
        vae, mmvae.encode_arrays(vae, batch), batch, subset, num_samples, seed
    )


def _log_likelihood(
    vae, encoded, batch, subset: SubsetIndex, num_samples: int, seed: int
) -> float:
    """test_log_likelihood of `batch`, whose mmvae.encode_arrays output is
    `encoded`."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    config = vae.config
    d = config.latent_dim
    weights, mus, sigmas = mmvae.aggregate_arrays(vae, encoded, subset)
    prior = np.ones(1), np.zeros((1, d)), np.ones((1, d))
    rng = rng_stream(seed, _TAG_LOGLIK, subset.mask)
    n = mus.shape[1]
    estimates = np.empty(n)
    for i in range(n):
        comp = mmvae.pick_components(weights, rng.random(num_samples))
        eps = rng.standard_normal((num_samples, d))
        z = mus[comp, i] + sigmas[comp, i] * eps
        log_q = mixture_log_density(weights, mus[:, i], sigmas[:, i], z)
        log_prior = mixture_log_density(*prior, z)
        log_lik = np.zeros(num_samples)
        for m in range(config.num_modalities):
            log_lik += mmvae.modality_log_lik(vae, m, batch[m][i], z)
        logs = log_lik + log_prior - log_q
        peak = logs.max()
        estimates[i] = peak + math.log(np.mean(np.exp(logs - peak)))
    result = float(np.mean(estimates))
    if not math.isfinite(result):
        raise NumericError("importance-sampled log-likelihood is not finite")
    return result


@dataclass
class EvalReport:
    """Per-subset latent accuracy, coherence, and log-likelihood estimates."""

    latent_accuracy: dict = field()
    coherence: dict = field()
    log_likelihood: dict = field()
    probe_train_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("latent_accuracy", "coherence"):
            if not all(0.0 <= value <= 1.0 for value in getattr(self, name).values()):
                raise ValueError(f"{name} values must lie in [0, 1]")


def evaluate_model(
    vae,
    train_set,
    test_set,
    *,
    importance_samples: int,
    probe_samples: int,
    coherence_samples: int,
    loglik_examples: int,
    seed: int,
) -> EvalReport:
    """Run all three protocols over every non-empty modality subset.

    The five settings are the `eval` section of a run config, whose schema
    in `baryvae.cli` holds their defaults.

    Calls `diffgraph.keep_heap_mapped`, for the whole process, so that the
    importance sampler's large arrays are not faulted in afresh each time.
    """
    keep_heap_mapped()
    m_count = vae.config.num_modalities
    nonempty = [s for s in subsets(m_count) if not s.is_empty]
    rng = rng_stream(seed, _TAG_PROBE)

    reference = {
        m: fit_linear_probe(train_set.modalities[m], train_set.labels)
        for m in range(m_count)
    }

    n_probe = min(probe_samples, train_set.num_examples)
    probe_idx = rng.choice(train_set.num_examples, size=n_probe, replace=False)
    probe_batch = [mod[probe_idx] for mod in train_set.modalities]
    probe_labels = train_set.labels[probe_idx]

    probe_encoded = mmvae.encode_arrays(vae, probe_batch)
    test_encoded = mmvae.encode_arrays(vae, test_set.modalities)

    n_ll = min(loglik_examples, test_set.num_examples)
    ll_batch = [mod[:n_ll] for mod in test_set.modalities]
    ll_encoded = [(mu[:n_ll], sigma[:n_ll]) for mu, sigma in test_encoded]

    def score(subset):
        probe = fit_linear_probe(latent_means(vae, probe_encoded, subset), probe_labels)
        acc = latent_accuracy(probe, latent_means(vae, test_encoded, subset), test_set.labels)
        ll = _log_likelihood(vae, ll_encoded, ll_batch, subset, importance_samples, seed)
        by_target = {
            target: coherence(
                vae, test_encoded, test_set.labels, reference, subset, target,
                coherence_samples, seed,
            )
            for target in range(m_count)
            if not subset.mask >> target & 1
        }
        return probe.trained_on, acc, ll, by_target

    accuracy, counts, loglik, coh = {}, {}, {}, {}
    for subset, scores in zip(nonempty, _map_in_order(score, nonempty)):
        counts[subset.mask], accuracy[subset.mask], loglik[subset.mask], by_target = scores
        for target, value in by_target.items():
            coh[(subset.mask, target)] = value
    return EvalReport(
        latent_accuracy=accuracy,
        coherence=coh,
        log_likelihood=loglik,
        probe_train_counts=counts,
    )
