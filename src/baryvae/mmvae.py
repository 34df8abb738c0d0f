"""Multimodal VAE with pluggable barycentric posterior aggregation.

One Gaussian encoder and one decoder per modality. The joint posterior is
formed from the unimodal posteriors by the configured aggregation (poe, moe,
wb, mopoe, mwb) in one place, `_joint_graph`, which applies the table of
`barycenter.mixing` through `barycenter.joint` (the kernel that also serves
`barycenter.aggregate`) to tape nodes in the training graph and to arrays in
`aggregate_arrays`. Training maximizes a reconstruction term plus a
beta-weighted KL term: single-Gaussian aggregations use the closed-form KL
to the standard-normal prior, mixture aggregations use the convex upper
bound (weighted component-wise KL) so the objective stays a valid bound,
with one reparameterized sample per mixture component feeding all decoders.
The K components of a batch stay stacked as one (K B) x d array through the
KL, the sampling and the decoders. Each modality's decoder and likelihood is
one branch of `diffgraph.fork_sum`, run backward as soon as it is built, on
one pool thread per CPU once the K B rows reach `diffgraph.FORK_THREAD_ROWS`
(256): the mixture aggregations at the shipped batch size, not `poe` and
`wb`. Every training output is the same whatever the CPU count.

The network is defined once, on diffgraph primitives (`_encode_graph`,
`_decode_graph`). Training runs it on tape leaves and gets tape nodes;
evaluation and generation run it on the store's raw arrays and get arrays,
with no tape built. So is each decoder likelihood, in `DECODER_LIKELIHOODS`:
training passes it to `diffgraph.weighted_loglik`, and evaluation sums its
terms.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import barycenter as bc
from . import diffgraph as dg
from .errors import NumericError
from .gaussian import SIGMA_FLOOR

GAUSSIAN_LIK_SIGMA = 0.75
_GAUSSIAN_LIK_CONST = -0.5 * math.log(2.0 * math.pi) - math.log(GAUSSIAN_LIK_SIGMA)

# Each decoder likelihood is defined once, here, for training's fused
# `diffgraph.weighted_loglik`, `modality_log_lik` and `decode_mean`:
# terms(x, out) is the elementwise log density of data x given decoder
# output out, slope(gw, x, out) its derivative in out times gw, and mean(out)
# the mean of x.
Likelihood = collections.namedtuple("Likelihood", ("terms", "slope", "mean"))


def _bernoulli_terms(x, logits):
    return x * logits - dg._softplus(logits)


DECODER_LIKELIHOODS = {
    "bernoulli": Likelihood(
        terms=_bernoulli_terms,
        slope=lambda gw, x, logits: gw * x - gw * dg._sigmoid(logits),
        mean=dg._sigmoid,
    ),
    "gaussian": Likelihood(  # N(out, GAUSSIAN_LIK_SIGMA^2)
        terms=lambda x, out: (
            _GAUSSIAN_LIK_CONST - (x - out) ** 2 / (2.0 * GAUSSIAN_LIK_SIGMA**2)
        ),
        slope=lambda gw, x, out: gw * (x - out) / GAUSSIAN_LIK_SIGMA**2,
        mean=lambda out: out,
    ),
}
LIKELIHOODS = tuple(DECODER_LIKELIHOODS)

_TAG_INIT = 21
_TAG_SHUFFLE = 22
_TAG_NOISE = 23


@dataclass(frozen=True)
class ModelConfig:
    num_modalities: int
    input_dims: tuple
    latent_dim: int = 16
    hidden: tuple = (128, 128)
    likelihood: str = "bernoulli"
    aggregation: str = "wb"
    beta: float = 2.5
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.num_modalities < 1:
            raise ValueError("num_modalities must be >= 1")
        if len(self.input_dims) != self.num_modalities:
            raise ValueError("input_dims length must equal num_modalities")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if any(d < 1 for d in self.input_dims):
            raise ValueError("input_dims must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be >= 1")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.likelihood not in LIKELIHOODS:
            raise ValueError(f"likelihood must be one of {LIKELIHOODS}")
        if self.aggregation not in bc.METHODS:
            raise ValueError(f"aggregation must be one of {bc.METHODS}")


def _uniform(m: int) -> np.ndarray:
    """Equal family weights over m modalities; empty for m = 0."""
    return np.ones(m) / m


def num_mixture_components(config: ModelConfig) -> int:
    """How many joint-posterior components the configured aggregation yields."""
    weights, _, _ = bc.mixing(config.aggregation, _uniform(config.num_modalities))
    return len(weights)


@dataclass
class MultimodalVae:
    config: ModelConfig
    store: dg.ParamStore = field(default=None)

    def __post_init__(self):
        if self.store is None:
            self.store = _init_params(self.config)


def _init_params(config: ModelConfig) -> dg.ParamStore:
    store = dg.ParamStore()
    rng = dg.rng_stream(config.seed, _TAG_INIT)
    d = config.latent_dim
    for m in range(config.num_modalities):
        dims = [config.input_dims[m], *config.hidden]
        for i in range(len(dims) - 1):
            store.add(f"enc{m}.w{i}", dg.glorot_uniform(rng, dims[i], dims[i + 1]))
            store.add(f"enc{m}.b{i}", np.zeros(dims[i + 1]))
        top = dims[-1]
        store.add(f"enc{m}.mu_w", dg.glorot_uniform(rng, top, d))
        store.add(f"enc{m}.mu_b", np.zeros(d))
        store.add(f"enc{m}.sigma_w", dg.glorot_uniform(rng, top, d))
        store.add(f"enc{m}.sigma_b", np.zeros(d))
        dims = [d, *reversed(config.hidden)]
        for i in range(len(dims) - 1):
            store.add(f"dec{m}.w{i}", dg.glorot_uniform(rng, dims[i], dims[i + 1]))
            store.add(f"dec{m}.b{i}", np.zeros(dims[i + 1]))
        store.add(f"dec{m}.out_w", dg.glorot_uniform(rng, dims[-1], config.input_dims[m]))
        store.add(f"dec{m}.out_b", np.zeros(config.input_dims[m]))
    return store


# ---------------------------------------------------------------------------
# The network: one encoder and one decoder per modality
# ---------------------------------------------------------------------------


def _encode_graph(values, config: ModelConfig, m: int, x):
    """Posterior (mu, sigma) for modality m's B x input_dim batch x.

    `values` maps parameter names to tape leaves when training, giving tape
    nodes, and to the store's raw arrays otherwise, giving the plain forward
    pass as arrays with no tape built, in the parameters' dtype.
    """
    x = np.asarray(x, dtype=values[f"enc{m}.mu_w"].dtype)
    if x.ndim != 2 or x.shape[1] != config.input_dims[m]:
        raise ValueError(
            f"modality {m} batch shape {x.shape} does not match input dim "
            f"{config.input_dims[m]}"
        )
    h = x
    for i in range(len(config.hidden)):
        h = dg.dense(h, values[f"enc{m}.w{i}"], values[f"enc{m}.b{i}"], tanh=True)
    mu = dg.dense(h, values[f"enc{m}.mu_w"], values[f"enc{m}.mu_b"])
    pre = dg.dense(h, values[f"enc{m}.sigma_w"], values[f"enc{m}.sigma_b"])
    sigma = dg.add(dg.softplus(pre), SIGMA_FLOOR)
    return mu, sigma


def _decode_graph(values, config: ModelConfig, m: int, z):
    """Raw decoder output for latent rows z; `values` as in _encode_graph."""
    h = z
    for i in range(len(config.hidden)):
        h = dg.dense(h, values[f"dec{m}.w{i}"], values[f"dec{m}.b{i}"], tanh=True)
    return dg.dense(h, values[f"dec{m}.out_w"], values[f"dec{m}.out_b"])


def _joint_graph(config: ModelConfig, encoded, idx):
    """The joint posterior of the modalities in idx: (weights K, mean, sigma).

    `encoded` holds one (mu, sigma) pair of b x d entries per modality, tape
    nodes when training and arrays otherwise; only the entries idx selects
    are read, and the first entry, for the prior's shape, when idx is empty.
    mean and sigma are (K b) x d, nodes or arrays as `encoded` is, the
    components stacked component-major.
    """
    weights, rows, natural = bc.mixing(config.aggregation, _uniform(len(idx)))
    mus, sigmas = [encoded[i][0] for i in idx], [encoded[i][1] for i in idx]
    like = encoded[idx[0] if idx else 0][0]
    return (weights, *bc.joint(rows, natural, mus, sigmas, like))


def _elbo_graph(values, config: ModelConfig, batch, noise: np.ndarray):
    """Scalar training loss (negative bound) plus reported term values."""
    batch = [np.asarray(x, dtype=np.float64) for x in batch]
    if len(batch) != config.num_modalities:
        raise ValueError("batch must provide one array per modality")
    encoded = [_encode_graph(values, config, m, x) for m, x in enumerate(batch)]
    b = batch[0].shape[0]
    d = config.latent_dim
    weights, mu, sigma = _joint_graph(config, encoded, range(config.num_modalities))
    k = len(weights)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (k, b, d):
        raise ValueError(f"noise shape {noise.shape} != {(k, b, d)}")
    comp_w = np.repeat(weights, b)[:, None]

    # KL term: weighted closed-form KL of each component to the N(0, I) prior,
    # averaged over the batch.
    per = dg.add(
        dg.add(dg.square(mu), dg.square(sigma)),
        dg.add(dg.mul(dg.log(sigma), -2.0), -1.0),
    )
    kl = dg.mul(dg.vsum(dg.mul(per, comp_w)), 0.5 / b)

    # Reconstruction: one reparameterized sample per component, the K
    # components stacked into a single decoder pass per modality, weighted by
    # component weight. Each modality's decoder and likelihood is a branch of
    # the fork, which runs them on several threads when z_all has enough rows.
    z_all = dg.add(mu, dg.mul(sigma, noise.reshape(k * b, d)))
    row_w = comp_w / b
    lik = DECODER_LIKELIHOODS[config.likelihood]

    def recon_graph(m, z):
        out = _decode_graph(values, config, m, z)
        return dg.weighted_loglik(batch[m], out, row_w, lik.terms, lik.slope)

    branches = [functools.partial(recon_graph, m) for m in range(config.num_modalities)]
    # loss = -recon + beta * KL, so recon's gradient is -1: each branch runs
    # backward as soon as it is built, and frees its activations
    recon, recon_terms = dg.fork_sum(z_all, branches, grad=-1.0)
    loss = dg.add(dg.mul(recon, -1.0), dg.mul(kl, config.beta))

    terms = {f"recon_mod{m}": float(t.data) for m, t in enumerate(recon_terms)}
    terms["kl"] = float(kl.data)
    for name, value in [*terms.items(), ("loss", float(loss.data))]:
        if not math.isfinite(value):
            raise NumericError(f"non-finite {name} in training objective", term=name)
    return loss, terms


def elbo(vae: MultimodalVae, batch, noise: np.ndarray):
    """Training loss and its terms for one batch with injected noise.

    Returns (loss, terms) where loss is -reconstruction + beta * KL-term and
    terms holds the per-modality mean reconstruction log-likelihoods and the
    KL term. Building the loss also runs each decoder branch's backward
    (`diffgraph.fork_sum`), into parameter leaves that are then dropped.
    """
    loss, terms = _elbo_graph(vae.store.as_values(), vae.config, batch, noise)
    return float(loss.data), terms


def elbo_builder(vae: MultimodalVae, batch, noise: np.ndarray):
    """A builder of the loss node for (batch, noise) over given parameter leaves."""

    def build(values):
        return _elbo_graph(values, vae.config, batch, noise)[0]

    return build


# ---------------------------------------------------------------------------
# Evaluation and generation: the network on the store's raw arrays
# ---------------------------------------------------------------------------


def encode_arrays(vae: MultimodalVae, batch):
    """Per-modality posterior parameter arrays [(mu B x d, sigma B x d)]."""
    return [_encode_graph(vae.store.params, vae.config, m, x) for m, x in enumerate(batch)]


def decode_array(vae: MultimodalVae, m: int, z: np.ndarray) -> np.ndarray:
    """Raw decoder output (logits for bernoulli, means for gaussian)."""
    return _decode_graph(vae.store.params, vae.config, m, z)


def decode_mean(vae: MultimodalVae, m: int, z: np.ndarray) -> np.ndarray:
    return DECODER_LIKELIHOODS[vae.config.likelihood].mean(decode_array(vae, m, z))


def modality_log_lik(vae: MultimodalVae, m: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log p_m(x | z_i) for one observation x against rows z_i."""
    out = decode_array(vae, m, np.atleast_2d(z))
    x = np.asarray(x, dtype=np.float64)
    return np.sum(DECODER_LIKELIHOODS[vae.config.likelihood].terms(x[None, :], out), axis=1)


def aggregate_arrays(vae: MultimodalVae, encoded, subset: bc.SubsetIndex):
    """Batched aggregation: (weights K, mu K x B x d, sigma K x B x d).

    encoded is the output of encode_arrays; only the entries selected by
    `subset` are read.
    """
    weights, mu, sigma = _joint_graph(vae.config, encoded, subset.members())
    shape = (len(weights), -1, vae.config.latent_dim)
    return weights, mu.reshape(shape), sigma.reshape(shape)


def pick_components(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mixture component index per uniform draw in u, by inverse transform.

    Zero-weight components are never picked; a draw past a cumulative sum
    that rounds below 1 goes to the last component.
    """
    return np.minimum(np.searchsorted(np.cumsum(weights), u, side="right"), len(weights) - 1)


def conditional_generate(
    vae: MultimodalVae,
    encoded,
    available: bc.SubsetIndex,
    target: int,
    noise: np.ndarray,
    component_u: np.ndarray = None,
) -> np.ndarray:
    """Generate the target modality from the available ones.

    `encoded` is the output of encode_arrays; only the entries selected by
    `available` are read, so absent slots may be None. Aggregates the
    available posteriors, draws z = mu + sigma * noise (for mixtures the
    component of each example is picked from `component_u` by inverse
    transform on the mixture weights), and decodes the target. The
    powerset methods sample only their data-conditioned components: the prior
    component exists to make the mixture a complete posterior, but drawing
    unconditional z would decouple the generation from the given inputs.
    Fully deterministic given the injected noise.
    """
    if available.is_empty:
        raise ValueError("available subset must be non-empty")
    if not 0 <= target < vae.config.num_modalities:
        raise ValueError(f"target modality {target} not in model")
    weights, mus, sigmas = aggregate_arrays(vae, encoded, available)
    if vae.config.aggregation in ("mopoe", "mwb"):
        weights, mus, sigmas = weights[1:], mus[1:], sigmas[1:]
        weights = weights / weights.sum()
    b = mus.shape[1]
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (b, vae.config.latent_dim):
        raise ValueError(f"noise shape {noise.shape} != {(b, vae.config.latent_dim)}")
    if len(weights) == 1:
        z = mus[0] + sigmas[0] * noise
    else:
        if component_u is None:
            raise ValueError("mixture aggregation needs component_u values")
        component_u = np.asarray(component_u, dtype=np.float64)
        if component_u.shape != (b,):
            raise ValueError(f"component_u shape {component_u.shape} != ({b},)")
        choice = pick_components(weights, component_u)
        rows = np.arange(b)
        z = mus[choice, rows] + sigmas[choice, rows] * noise
    return decode_mean(vae, target, z)


def _train_step(vae: MultimodalVae, batch, noise: np.ndarray):
    """One Adam step on (batch, noise); returns (loss, terms) as floats.

    Backward releases the step's tape as it runs; the parameter leaves,
    which hold the gradients Adam reads, live only in this call.
    """
    values = vae.store.as_values()
    loss, terms = _elbo_graph(values, vae.config, batch, noise)
    loss.backward()
    grads = {name: values[name].grad for name in vae.store.names()}
    dg.adam_step(vae.store, grads, lr=vae.config.learning_rate)
    return float(loss.data), terms


def train(config: ModelConfig, dataset):
    """Train a model on the dataset; returns (vae, per-epoch metrics rows).

    Deterministic for a fixed seed: shuffling and reparameterization noise are
    drawn from counter-based streams keyed by (seed, epoch, step). Calls
    `diffgraph.keep_heap_mapped`, so one step's freed tape serves the next
    without faulting memory in again; that allocator setting holds for the
    whole process, and its resident memory is not returned to the OS after
    the peak.
    """
    if dataset.dims != list(config.input_dims):
        raise ValueError(f"dataset dims {dataset.dims} do not match {list(config.input_dims)}")
    dg.keep_heap_mapped()
    k = num_mixture_components(config)
    vae = MultimodalVae(config)
    n = dataset.num_examples
    history = []
    for epoch in range(config.epochs):
        perm = dg.rng_stream(config.seed, _TAG_SHUFFLE, epoch).permutation(n)
        sums = {}
        count = 0
        for step, lo in enumerate(range(0, n, config.batch_size)):
            idx = perm[lo : lo + config.batch_size]
            batch = [mod[idx] for mod in dataset.modalities]
            noise = dg.rng_stream(config.seed, _TAG_NOISE, epoch, step).standard_normal(
                (k, len(idx), config.latent_dim)
            )
            try:
                loss, terms = _train_step(vae, batch, noise)
            except NumericError as err:
                raise NumericError(
                    f"{err} (epoch {epoch}, step {step})", **err.details, epoch=epoch, step=step
                ) from err
            sums["loss"] = sums.get("loss", 0.0) + loss
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + value
            count += 1
        row = {"epoch": epoch, "loss": sums["loss"] / count}
        for m in range(config.num_modalities):
            row[f"recon_mod{m}"] = sums[f"recon_mod{m}"] / count
        row["kl"] = sums["kl"] / count
        history.append(row)
    return vae, history


def config_with(config: ModelConfig, **overrides) -> ModelConfig:
    return replace(config, **overrides)
