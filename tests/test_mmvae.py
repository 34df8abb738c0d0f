import gc
import json
import math
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import baryvae.diffgraph as dg
import baryvae.mmvae as mm
from baryvae.barycenter import METHODS, SubsetIndex, WeightedFamily, aggregate, subsets
from baryvae.cli import parse_run_config
from baryvae.data import MultimodalDataset, ToyConfig, gen_toy
from baryvae.errors import NumericError
from baryvae.evaluation import _log_weights
from baryvae.evaluation import test_log_likelihood as importance_log_likelihood
from baryvae.gaussian import DiagGaussian

from gradcheck import grad_check
from oracles import (
    linear_gaussian_vae,
    masked_sigmoid,
    numpy_decode,
    numpy_encode,
    numpy_log_lik,
    quad_kl_1d,
)


def softplus_inv(y):
    return math.log(math.expm1(y))


def small_config(method="wb", m=2, **overrides):
    defaults = dict(
        num_modalities=m,
        input_dims=tuple([5, 4, 6][:m]),
        latent_dim=3,
        hidden=(6,),
        aggregation=method,
        beta=2.5,
        batch_size=8,
        epochs=2,
        seed=3,
    )
    defaults.update(overrides)
    return mm.ModelConfig(**defaults)


def random_batch(config, b=4, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((b, d)) for d in config.input_dims]


def noise_for(config, b, seed=1):
    k = mm.num_mixture_components(config)
    return dg.rng_stream(seed, 99).standard_normal((k, b, config.latent_dim))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mm.ModelConfig(num_modalities=0, input_dims=())
        with pytest.raises(ValueError):
            mm.ModelConfig(num_modalities=2, input_dims=(3,))
        with pytest.raises(ValueError):
            small_config(beta=-0.1)
        with pytest.raises(ValueError):
            small_config(aggregation="gan")
        with pytest.raises(ValueError):
            small_config(likelihood="poisson")
        with pytest.raises(ValueError, match="hidden"):
            small_config(hidden=(0,))
        with pytest.raises(ValueError, match="hidden"):
            small_config(hidden=(6, -1))
        with pytest.raises(ValueError, match="input_dims"):
            mm.ModelConfig(num_modalities=2, input_dims=(5, 0))

    def test_component_counts(self):
        assert mm.num_mixture_components(small_config("wb")) == 1
        assert mm.num_mixture_components(small_config("poe")) == 1
        assert mm.num_mixture_components(small_config("moe", m=3)) == 3
        assert mm.num_mixture_components(small_config("mopoe", m=3)) == 8
        assert mm.num_mixture_components(small_config("mwb", m=2)) == 4


class TestEncode:
    def test_zero_input_finite_with_floored_sigma(self):
        config = small_config()
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, [np.zeros((3, 5)), np.zeros((3, 4))])
        for mu, sigma in encoded:
            assert np.all(np.isfinite(mu))
            assert np.all(sigma >= 1e-6)

    def test_deterministic(self):
        config = small_config()
        vae = mm.MultimodalVae(config)
        batch = random_batch(config)
        a = mm.encode_arrays(vae, batch)
        b = mm.encode_arrays(vae, batch)
        for (mu_a, sig_a), (mu_b, sig_b) in zip(a, b):
            assert np.array_equal(mu_a, mu_b) and np.array_equal(sig_a, sig_b)

    def test_batch_shape_contract(self):
        config = small_config()
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, random_batch(config, b=7))
        assert len(encoded) == config.num_modalities
        shape = (7, config.latent_dim)
        assert all(mu.shape == shape and sigma.shape == shape for mu, sigma in encoded)

    def test_dim_mismatch(self):
        config = small_config()
        vae = mm.MultimodalVae(config)
        with pytest.raises(ValueError):
            mm.encode_arrays(vae, [np.zeros((3, 5)), np.zeros((3, 9))])
        # one array per modality, no more and no fewer
        batch = random_batch(config, b=3)
        for wrong in (batch[:1], [*batch, np.zeros((3, 4))]):
            with pytest.raises(ValueError, match="one array per modality"):
                mm.encode_arrays(vae, wrong)
        # one row count across the modalities
        ragged = [batch[0], random_batch(config, b=5)[1]]
        with pytest.raises(ValueError, match=r"one row count, not \[3, 5\]"):
            mm.encode_arrays(vae, ragged)
        with pytest.raises(ValueError, match=r"one row count, not \[3, 5\]"):
            mm.elbo(vae, ragged, noise_for(config, 3))

    @pytest.mark.parametrize("n", [2, 3, 17, 48, 150])
    @pytest.mark.parametrize("pick", ["first", "random"])
    def test_encoding_rows_equals_slicing_the_encoding(self, n, pick):
        # Evaluation encodes each example set once, aggregates each subset's
        # joint once and generates from rows sliced out of that joint, so
        # encoding the rows alone must give the same bits, and so must
        # aggregating them. One row is left out: numpy runs a one-row matmul
        # through BLAS gemv instead of gemm, which may differ in the last bit.
        config = small_config(m=3, input_dims=(64, 48, 32), latent_dim=16, hidden=(128, 128))
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=240, seed=5)
        whole = mm.encode_arrays(vae, batch)
        rng = np.random.default_rng(n)
        idx = np.arange(n) if pick == "first" else rng.choice(240, size=n, replace=False)
        rows = mm.encode_arrays(vae, [x[idx] for x in batch])
        for (mu, sigma), (mu_rows, sigma_rows) in zip(whole, rows):
            assert np.array_equal(mu[idx], mu_rows)
            assert np.array_equal(sigma[idx], sigma_rows)
        sliced = [(mu[idx], sigma[idx]) for mu, sigma in whole]
        for method in METHODS:
            model = mm.MultimodalVae(mm.config_with(config, aggregation=method))
            for subset in subsets(3)[1:]:
                weights, mus, sigmas = mm.aggregate_arrays(model, whole, subset)
                joint_rows = mm.aggregate_arrays(model, sliced, subset)
                assert joint_rows[0].tobytes() == weights.tobytes()
                assert joint_rows[1].tobytes() == mus[:, idx].tobytes(), (method, subset)
                assert joint_rows[2].tobytes() == sigmas[:, idx].tobytes(), (method, subset)


class TestArrayForward:
    """The evaluation-side forward against a plain numpy restatement."""

    @pytest.mark.parametrize("likelihood", mm.LIKELIHOODS)
    @pytest.mark.parametrize("hidden", [(), (128, 128)])
    def test_matches_numpy_oracle_bit_for_bit(self, hidden, likelihood):
        config = small_config(hidden=hidden, likelihood=likelihood)
        vae = mm.MultimodalVae(config)
        rng = np.random.default_rng(4)
        params = vae.store.params
        for name in params:
            params[name] = params[name] + 0.5 * rng.standard_normal(params[name].shape)
        batch = random_batch(config, b=7)
        z = 3.0 * rng.standard_normal((7, config.latent_dim))
        for m, (mu, sigma) in enumerate(mm.encode_arrays(vae, batch)):
            want_mu, want_sigma = numpy_encode(params, config, m, batch[m])
            assert np.array_equal(mu, want_mu) and np.array_equal(sigma, want_sigma)
            out = numpy_decode(params, config, m, z)
            assert np.array_equal(mm.decode_array(vae, m, z), out)
            mean = masked_sigmoid(out) if likelihood == "bernoulli" else out
            assert np.array_equal(mm.decode_mean(vae, m, z), mean)
            x = batch[m][0]
            want = numpy_log_lik(out, x, likelihood, mm.GAUSSIAN_LIK_SIGMA)
            terms = mm.DECODER_LIKELIHOODS[likelihood].terms(x, mm.decode_array(vae, m, z))
            assert np.array_equal(np.sum(terms, axis=1), want)

    def test_decode_mean_saturates_without_overflow(self):
        config = small_config(hidden=())
        vae = mm.MultimodalVae(config)
        vae.store.params["dec1.out_w"][:] = 0.0
        vae.store.params["dec1.out_b"][:] = [800.0, -800.0, 2.5, -1.25]
        z = np.zeros((2, config.latent_dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mm.decode_mean(vae, 1, z)
        assert np.array_equal(got, masked_sigmoid(mm.decode_array(vae, 1, z)))
        assert got[0, 0] == 1.0 and got[0, 1] == 0.0

    def test_float32_store_decodes_in_float32(self):
        config = small_config(hidden=(6, 5))
        vae = mm.MultimodalVae(config)
        params32 = {name: a.astype(np.float32) for name, a in vae.store.params.items()}
        z = np.random.default_rng(6).standard_normal((7, config.latent_dim))
        for m in range(config.num_modalities):
            out = mm._decode_graph(params32, config, m, z.astype(np.float32))
            assert out.dtype == np.float32
            np.testing.assert_allclose(out, mm.decode_array(vae, m, z), rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("method", METHODS)
    def test_float32_store_encodes_and_aggregates_in_float32(self, method):
        config = small_config(method, m=3, hidden=(6, 5))
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=7)
        encoded64 = mm.encode_arrays(vae, batch)
        vae.store.params = {name: a.astype(np.float32) for name, a in vae.store.params.items()}
        encoded = mm.encode_arrays(vae, batch)
        for (mu, sigma), (mu64, sigma64) in zip(encoded, encoded64):
            assert mu.dtype == sigma.dtype == np.float32
            np.testing.assert_allclose(mu, mu64, rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(sigma, sigma64, rtol=1e-4, atol=1e-5)
        for subset in subsets(config.num_modalities)[1:]:
            weights, mus, sigmas = mm.aggregate_arrays(vae, encoded, subset)
            assert mus.dtype == sigmas.dtype == np.float32, subset


def count_values(monkeypatch, parents=None):
    """The Values built from here on, collected as perfbench's tape size does.

    A `parents` dict also receives each Value's parents at construction,
    keyed by id: a fork branch's nodes are detached before the fork returns.
    """
    built = []
    init = dg.Value.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
        if parents is not None:
            parents[id(self)] = self._parents

    monkeypatch.setattr(dg.Value, "__init__", counting_init)
    return built


class TestNoTapeOutsideTraining:
    """Only training builds Values, and only for what it differentiates."""

    @pytest.mark.parametrize("method", METHODS)
    def test_array_calls_build_no_value(self, monkeypatch, method):
        config = small_config(method, m=3)
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=4)
        full = SubsetIndex(0b111, 3)
        rng = np.random.default_rng(5)
        noise, u = rng.standard_normal((4, config.latent_dim)), rng.uniform(size=4)
        encoded = mm.encode_arrays(vae, batch)
        joint = mm.aggregate_arrays(vae, encoded, full)
        family = WeightedFamily.uniform([DiagGaussian(mu[0], s[0]) for mu, s in encoded])
        calls = {
            "encode_arrays": lambda: mm.encode_arrays(vae, batch),
            "decode_array": lambda: mm.decode_array(vae, 2, noise),
            "aggregate_arrays": lambda: mm.aggregate_arrays(vae, encoded, full),
            "conditional_generate": lambda: mm.conditional_generate(vae, joint, 0, noise, u),
            "barycenter.aggregate": lambda: aggregate(family, method),
            "_log_weights": lambda: _log_weights(vae, joint, batch, full, 8, 0),
        }
        built = count_values(monkeypatch)
        counts = {}
        for name, call in calls.items():
            before = len(built)
            call()
            counts[name] = len(built) - before
        assert counts == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("method", ["wb", "mwb"])
    def test_training_leaves_are_parameters_and_fork_leaves(self, monkeypatch, method):
        config = small_config(method, m=3)
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=4)
        parents = {}
        built = count_values(monkeypatch, parents)
        values = vae.store.as_values()
        loss, _ = mm._elbo_graph(values, config, batch, noise_for(config, 4))
        loss.backward()
        leaves = [v for v in built if not parents[id(v)]]
        params = {id(v) for v in values.values()}
        assert params <= {id(v) for v in leaves} and len(leaves) < len(built)
        # the other leaves are fork_sum's: one per modality, over z_all's array
        others = [v for v in leaves if id(v) not in params]
        k = mm.num_mixture_components(config)
        assert len(others) == config.num_modalities
        assert len({id(v.data) for v in others}) == 1
        assert others[0].shape == (k * 4, config.latent_dim)

    @pytest.mark.parametrize("method", ["wb", "mwb"])
    def test_each_likelihood_is_one_node_per_modality(self, monkeypatch, method):
        # the decoder output's one consumer is the fused likelihood node, the
        # branch's output, so both likelihoods build graphs of one size
        decoded = []
        decode = mm._decode_graph

        def recorded(*args):
            decoded.append(decode(*args))
            return decoded[-1]

        monkeypatch.setattr(mm, "_decode_graph", recorded)
        parents = {}
        built = count_values(monkeypatch, parents)
        sizes = {}
        for likelihood in mm.LIKELIHOODS:
            config = small_config(method, m=3, likelihood=likelihood)
            values = mm.MultimodalVae(config).store.as_values()
            built.clear()
            decoded.clear()
            mm._elbo_graph(values, config, random_batch(config), noise_for(config, 4))
            outs = {id(out) for out in decoded}
            consumers = [v for v in built if outs & {id(p) for p in parents[id(v)]}]
            assert len(decoded) == len(consumers) == config.num_modalities, likelihood
            sizes[likelihood] = len(built)
        assert sizes["gaussian"] == sizes["bernoulli"]


class TestAggregate:
    def family(self, count=2):
        posteriors = [DiagGaussian([0.0], [1.0]), DiagGaussian([2.0], [1.0])]
        return WeightedFamily.uniform(posteriors[:count])

    def test_wb_single_modality_identity(self):
        weights, mean, sigma = aggregate(self.family(1), "wb")
        assert weights.tolist() == [1.0] and mean.tolist() == [[0.0]] and sigma.tolist() == [[1.0]]

    def test_poe_product(self):
        _, mean, sigma = aggregate(self.family(), "poe")
        assert mean[0, 0] == pytest.approx(1.0)
        assert sigma[0, 0] == pytest.approx(math.sqrt(0.5))

    def test_mwb_component_count(self):
        weights, mean, sigma = aggregate(self.family(), "mwb")
        assert weights.shape == (4,) and mean.shape == sigma.shape == (4, 1)

    def empty_subset(self, method):
        config = small_config(method)
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, random_batch(config, b=3))
        return mm.aggregate_arrays(vae, encoded, SubsetIndex(0, 2))

    def test_empty_subset_rejected_for_single_methods(self):
        for method in ("poe", "wb", "moe"):
            with pytest.raises(ValueError):
                self.empty_subset(method)

    def test_subset_over_another_modality_count_rejected(self):
        config = small_config()
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, random_batch(config, b=3))
        for subset in (SubsetIndex(0b1, 3), SubsetIndex(0b111, 3), SubsetIndex(0b1, 1)):
            with pytest.raises(ValueError, match="modalities"):
                mm.aggregate_arrays(vae, encoded, subset)

    def test_empty_subset_powerset_returns_prior(self):
        weights, mus, sigmas = self.empty_subset("mwb")
        assert np.array_equal(weights, [1.0])
        assert mus.shape == (1, 3, 3)
        assert np.allclose(mus, 0.0)
        assert np.allclose(sigmas, 1.0)

    @pytest.mark.parametrize("method", ["poe", "moe", "wb", "mopoe", "mwb"])
    def test_array_path_matches_per_example_path(self, method):
        config = small_config(method, m=3)
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=5)
        encoded = mm.encode_arrays(vae, batch)
        for subset in subsets(3):
            if subset.is_empty:
                continue
            weights, mus, sigmas = mm.aggregate_arrays(vae, encoded, subset)
            for i in (0, 3):
                family = WeightedFamily.uniform(
                    [DiagGaussian(encoded[m][0][i], encoded[m][1][i]) for m in subset.members()]
                )
                exp_w, exp_mean, exp_sigma = aggregate(family, method)
                assert np.allclose(weights, exp_w)
                assert np.allclose(mus[:, i], exp_mean, atol=1e-12)
                assert np.allclose(sigmas[:, i], exp_sigma, atol=1e-12)


def pin_encoder_to_prior(vae, modality):
    """Force encoder `modality` to output the standard-normal posterior."""
    cfg = vae.config
    for i in range(len(cfg.hidden)):
        vae.store.params[f"enc{modality}.w{i}"][:] = 0.0
        vae.store.params[f"enc{modality}.b{i}"][:] = 0.0
    vae.store.params[f"enc{modality}.mu_w"][:] = 0.0
    vae.store.params[f"enc{modality}.mu_b"][:] = 0.0
    vae.store.params[f"enc{modality}.sigma_w"][:] = 0.0
    vae.store.params[f"enc{modality}.sigma_b"][:] = softplus_inv(1.0 - 1e-6)


class TestElbo:
    def test_beta_zero_is_pure_reconstruction(self):
        config = small_config(beta=0.0)
        vae = mm.MultimodalVae(config)
        batch = random_batch(config)
        loss, terms = mm.elbo(vae, batch, noise_for(config, 4))
        recon = sum(terms[f"recon_mod{m}"] for m in range(config.num_modalities))
        assert loss == pytest.approx(-recon, abs=1e-12)

    def test_pinned_prior_encoder_zeroes_kl(self):
        config = small_config("wb")
        vae = mm.MultimodalVae(config)
        for m in range(config.num_modalities):
            pin_encoder_to_prior(vae, m)
        _, terms = mm.elbo(vae, random_batch(config), noise_for(config, 4))
        assert terms["kl"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("method", ["poe", "moe", "wb", "mopoe", "mwb"])
    def test_gradients_match_finite_differences(self, method):
        config = small_config(method)
        vae = mm.MultimodalVae(config)
        batch = random_batch(config)
        noise = noise_for(config, 4)
        err = grad_check(mm.elbo_builder(vae, batch, noise), vae.store, 1e-5)
        assert err < 1e-5

    def test_gaussian_likelihood_gradients(self):
        config = small_config("wb", likelihood="gaussian")
        vae = mm.MultimodalVae(config)
        batch = random_batch(config)
        err = grad_check(
            mm.elbo_builder(vae, batch, noise_for(config, 4)), vae.store, 1e-5
        )
        assert err < 1e-5

    def test_noise_shape_validated(self):
        config = small_config("mwb")
        vae = mm.MultimodalVae(config)
        with pytest.raises(ValueError):
            mm.elbo(vae, random_batch(config), np.zeros((1, 4, config.latent_dim)))

    def test_nan_parameters_reported_with_term(self):
        config = small_config("wb")
        vae = mm.MultimodalVae(config)
        vae.store.params["dec0.out_w"][0, 0] = np.nan
        with pytest.raises(NumericError) as err:
            mm.elbo(vae, random_batch(config), noise_for(config, 4))
        assert "term" in err.value.details

    @pytest.mark.parametrize("bad", [np.nan, 1e308], ids=["nan", "overflow"])
    def test_non_finite_branch_is_not_differentiated(self, monkeypatch, bad):
        # the step fails on the term anyway, so its backward is skipped
        config = small_config("mwb", m=3)
        vae = mm.MultimodalVae(config)
        vae.store.params["dec1.out_w"][:] = bad
        values = vae.store.as_values()
        run_tape = dg._run_tape
        runs, backward_warnings = [], []

        def spy(order):
            runs.append(len(order))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_tape(order)
            backward_warnings.extend(str(w.message) for w in caught)

        monkeypatch.setattr(dg, "_run_tape", spy)
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the forward's own overflow
            with pytest.raises(NumericError) as err:
                mm._elbo_graph(values, config, random_batch(config), noise_for(config, 4))
        assert str(err.value) == "non-finite recon_mod1 in training objective"
        assert err.value.details == {"term": "recon_mod1"}
        assert len(runs) == 2 and backward_warnings == []
        for name in vae.store.names():
            if name.startswith("dec"):
                assert values[name].grad.any() == (not name.startswith("dec1.")), name

    def test_mixture_kl_term_upper_bounds_true_mixture_kl(self):
        # convexity: the weighted component KL dominates KL(mixture || prior)
        for method in ("moe", "mopoe", "mwb"):
            config = small_config(method, latent_dim=1, seed=11)
            vae = mm.MultimodalVae(config)
            batch = random_batch(config, b=1, seed=5)
            _, terms = mm.elbo(vae, batch, noise_for(config, 1))
            encoded = mm.encode_arrays(vae, batch)
            weights, mus, sigmas = mm.aggregate_arrays(
                vae, encoded, SubsetIndex(0b11, 2)
            )
            mix = WeightedFamily(
                tuple(DiagGaussian(mus[k, 0], sigmas[k, 0]) for k in range(len(weights))),
                weights,
            )
            prior = DiagGaussian([0.0], [1.0])
            assert terms["kl"] >= quad_kl_1d(mix, prior) - 1e-6


class TestTrain:
    def toy(self, m=2, per_class=6, seed=2):
        return gen_toy(
            ToyConfig(num_modalities=m, examples_per_class=per_class, seed=seed)
        )

    def config_for(self, ds, **overrides):
        defaults = dict(
            num_modalities=ds.num_modalities,
            input_dims=tuple(ds.dims),
            latent_dim=4,
            hidden=(16,),
            batch_size=16,
            epochs=1,
            seed=0,
        )
        defaults.update(overrides)
        return mm.ModelConfig(**defaults)

    def test_single_epoch_smoke(self):
        ds = self.toy(per_class=4)  # 40 examples
        config = self.config_for(ds, epochs=1)
        vae, history = mm.train(config, ds)
        assert len(history) == 1
        assert math.isfinite(history[0]["loss"])
        assert set(history[0]) == {"epoch", "loss", "recon_mod0", "recon_mod1", "kl"}

    def test_loss_improves_with_training(self):
        ds = self.toy(per_class=10)
        short = mm.train(self.config_for(ds, epochs=1), ds)[1]
        long = mm.train(self.config_for(ds, epochs=20), ds)[1]
        assert long[-1]["loss"] < short[-1]["loss"]

    def test_deterministic_histories(self):
        ds = self.toy()
        config = self.config_for(ds, epochs=3)
        _, a = mm.train(config, ds)
        _, b = mm.train(config, ds)
        assert a == b

    def test_dataset_mismatch_rejected(self):
        ds = self.toy(m=2)
        config = self.config_for(ds)
        config = mm.config_with(config, num_modalities=1, input_dims=(64,))
        with pytest.raises(ValueError):
            mm.train(config, ds)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("method", ["wb", "mwb"])
    def test_step_tape_is_freed_before_the_next_graph(self, monkeypatch, method, cpus):
        ds = self.toy(per_class=4)  # 40 examples: 3 steps per epoch
        config = self.config_for(ds, aggregation=method, epochs=2)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)  # threads at 2 CPUs
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        original = mm._elbo_graph
        losses = []

        def tracked(*args):
            assert all(ref() is None for ref in losses), "an earlier step's loss node is alive"
            loss, terms = original(*args)
            # a node holds its data, so once the data is dead the node is too
            losses.append(weakref.ref(loss.data))
            return loss, terms

        monkeypatch.setattr(mm, "_elbo_graph", tracked)
        # freed by reference counting alone, not by a collection that happens to run
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            mm.train(config, ds)
        finally:
            if was_enabled:
                gc.enable()
        assert len(losses) == 6
        assert all(ref() is None for ref in losses)

    def test_numeric_failure_names_term_epoch_and_step(self):
        ds = self.toy(per_class=4)
        config = self.config_for(ds, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            mm.train(config, ds)
        assert str(err.value) == "non-finite kl in training objective (epoch 0, step 1)"
        assert err.value.details == {"term": "kl", "epoch": 0, "step": 1}

    def test_keeps_the_heap_mapped(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dg, "keep_heap_mapped", lambda: calls.append("train"))
        ds = self.toy(per_class=4)
        mm.train(self.config_for(ds, epochs=1), ds)
        assert calls == ["train"]

    @pytest.mark.parametrize("method", ["mopoe", "mwb"])
    def test_seventeen_modality_powerset_rejected(self, method):
        ds = MultimodalDataset([np.zeros((4, 1))] * 17, np.arange(4) % 2)
        config = self.config_for(ds, aggregation=method)
        with pytest.raises(ValueError, match="at most 16 experts, got 17"):
            mm.train(config, ds)


def shipped_config(name):
    """The model config and dataset of configs/<name>.json."""
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    run_config, dataset = parse_run_config(json.loads(path.read_text()))
    return run_config.model, dataset


class TestTrainThreads:
    """Training gives the same outputs with its decoder branches on one
    thread or on several."""

    @pytest.mark.parametrize("name", ["toy5_wb", "toy5_mwb"])
    def test_history_and_parameters_do_not_depend_on_cpu_count(self, monkeypatch, name):
        model, dataset = shipped_config(name)
        config = mm.config_with(model, epochs=2)
        reduced = dataset.take(np.arange(160))
        # wb's 64-row branches would otherwise stay on one thread
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(dg, "_cpu_count", lambda cpus=cpus: cpus)
            runs.append(mm.train(config, reduced))
        (one, one_history), (two, two_history) = runs
        assert json.dumps(one_history) == json.dumps(two_history)
        for key in one.store.names():
            assert one.store[key].tobytes() == two.store[key].tobytes()


class TestTrainStepMemory:
    """A training step holds only what its backward still reads."""

    MB = 2.0**20

    def measure_step(self, monkeypatch, cpus):
        """One toy5_mwb step at batch 64, traced from the pre-step baseline:
        (live after build, step peak, backward peak, live after backward,
        live with only the loss node held)."""
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        config, dataset = shipped_config("toy5_mwb")
        vae = mm.MultimodalVae(config)
        batch = [mod[:64] for mod in dataset.modalities]
        noise = noise_for(config, 64)
        values = vae.store.as_values()
        gc.collect()
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss, _ = mm._elbo_graph(values, config, batch, noise)
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            live, backward_peak = tracemalloc.get_traced_memory()
            del values
            held = tracemalloc.get_traced_memory()[0]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        step_peak = max(build_peak, backward_peak)
        return tuple((m - base) / self.MB for m in (built, step_peak, backward_peak, live, held))

    def test_mwb_step_frees_branch_activations_during_backward(self, monkeypatch):
        # one CPU, so the branches run one after another and their peaks
        # do not add up
        built, step_peak, backward_peak, live, held = self.measure_step(monkeypatch, 1)
        # measured: 15.9 MB step peak and 6.1 MB live after build, against
        # 34.1 and 28.9 MB with every branch built before any backward runs
        assert step_peak <= 20.0
        assert built <= 8.0
        # the loss's backward: measured 6.6 MB peak (9.3 MB with its tape
        # kept), against 46.9 MB with a tiled batch, a kept exp(-|z|) and
        # branches kept whole through it
        assert backward_peak <= 40.0
        # backward releases every computed node as it runs: measured 2.2 MB
        # live after it, the leaf gradients Adam reads, against 9.3 MB with
        # the tape kept; and a loss node held on its own keeps nothing of
        # the tape, against 8.2 MB
        assert live <= 3.0
        assert held <= 0.1

    def test_mwb_step_holds_one_branch_per_thread(self, monkeypatch):
        # two CPUs: each thread builds and differentiates one branch at a time
        # measured: 25.4 MB, against 39.3 MB with branches built whole first
        assert self.measure_step(monkeypatch, 2)[1] <= 30.0


class TestConditionalGenerate:
    def test_zero_noise_decodes_joint_mean(self):
        config = small_config("wb")
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=3)
        joint = mm.aggregate_arrays(vae, mm.encode_arrays(vae, batch), SubsetIndex(0b11, 2))
        expected = mm.decode_mean(vae, 1, joint[1][0])
        out = mm.conditional_generate(
            vae, joint, 1, np.zeros((3, config.latent_dim)), np.full(3, 0.5)
        )
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_every_joint_sampled_one_way(self, method):
        """Each example decodes mu + sigma * noise of the component its draw
        picks, byte for byte; with one component, that is the joint itself."""
        config = small_config(method, m=3)
        vae = mm.MultimodalVae(config)
        full = mm.encode_arrays(vae, random_batch(config, b=6, seed=2))
        rng = np.random.default_rng(4)
        noise, u = rng.standard_normal((6, config.latent_dim)), rng.random(6)
        for subset in subsets(3)[1:]:
            joint = weights, mus, sigmas = mm.aggregate_arrays(vae, full, subset)
            if method in ("mopoe", "mwb"):  # the prior component is never drawn
                weights, mus, sigmas = weights[1:] / weights[1:].sum(), mus[1:], sigmas[1:]
            picks = mm.pick_components(weights, u)
            z = np.stack([mus[k, i] + sigmas[k, i] * noise[i] for i, k in enumerate(picks)])
            if len(weights) == 1:
                assert z.tobytes() == (mus[0] + sigmas[0] * noise).tobytes()
            for target in range(3):
                out = mm.conditional_generate(vae, joint, target, noise, u)
                assert out.tobytes() == mm.decode_mean(vae, target, z).tobytes()

    def test_single_modality_self_reconstruction(self):
        config = small_config("wb", m=1)
        vae = mm.MultimodalVae(config)
        x = np.random.default_rng(0).random((2, 5))
        out = mm.conditional_generate(
            vae,
            mm.aggregate_arrays(vae, mm.encode_arrays(vae, [x]), SubsetIndex(0b1, 1)),
            0,
            np.zeros((2, config.latent_dim)),
            np.zeros(2),
        )
        assert out.shape == (2, 5)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_mixture_requires_component_noise(self):
        # every method draws its component from component_u, one joint
        # component or many: it is required, and its shape is checked
        for method in METHODS:
            config = small_config(method)
            vae = mm.MultimodalVae(config)
            encoded = mm.encode_arrays(vae, random_batch(config, b=2))
            joint = mm.aggregate_arrays(vae, encoded, SubsetIndex(0b11, 2))
            args = (vae, joint, 0, np.zeros((2, config.latent_dim)))
            with pytest.raises(TypeError, match="component_u"):
                mm.conditional_generate(*args)
            with pytest.raises(ValueError, match=r"component_u shape \(3,\) != \(2,\)"):
                mm.conditional_generate(*args, np.zeros(3))

    def test_mixture_generation_skips_prior_component(self):
        config = small_config("mwb")
        vae = mm.MultimodalVae(config)
        batch = random_batch(config, b=2)
        encoded = [mm.encode_arrays(vae, batch)[0], None]
        joint = mm.aggregate_arrays(vae, encoded, SubsetIndex(0b01, 2))
        # u = 0 selects the first sampled component; with the prior excluded
        # that is the single-modality posterior itself
        out = mm.conditional_generate(
            vae,
            joint,
            1,
            np.zeros((2, config.latent_dim)),
            component_u=np.zeros(2),
        )
        mu = encoded[0][0]
        assert out.tobytes() == mm.decode_mean(vae, 1, mu).tobytes()

    def test_bad_target_rejected(self):
        config = small_config("wb")
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, random_batch(config, b=2))
        with pytest.raises(ValueError):
            mm.conditional_generate(
                vae, mm.aggregate_arrays(vae, encoded, SubsetIndex(0b11, 2)), 5,
                np.zeros((2, config.latent_dim)), np.zeros(2),
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_malformed_joint_rejected(self, method):
        config = small_config(method)
        vae = mm.MultimodalVae(config)
        encoded = mm.encode_arrays(vae, random_batch(config, b=2))
        weights, mus, sigmas = mm.aggregate_arrays(vae, encoded, SubsetIndex(0b11, 2))
        args = (0, np.zeros((2, config.latent_dim)), np.zeros(2))
        for joint in (
            (weights[:-1], mus, sigmas),  # one weight short
            (weights, mus[:, :, :2], sigmas[:, :, :2]),  # not latent_dim wide
            (weights, mus, sigmas[:, :1]),  # sigmas of other rows
            (weights, mus[0], sigmas[0]),  # one component unstacked
        ):
            with pytest.raises(ValueError, match="joint must be weights"):
                mm.conditional_generate(vae, joint, *args)
        if method in ("mopoe", "mwb"):
            # the empty subset's joint is the prior alone: nothing to draw
            prior = mm.aggregate_arrays(vae, encoded, SubsetIndex(0, 2))
            assert len(prior[0]) == 1
            with pytest.raises(ValueError, match="prior alone"):
                mm.conditional_generate(vae, prior, *args)

    def test_missing_modalities_never_touched(self):
        # aggregate_arrays reads only the subset's slots; the joint it
        # returns is all that generation reads
        config = small_config("mwb", m=3)
        vae = mm.MultimodalVae(config)
        full = mm.encode_arrays(vae, random_batch(config, b=2, seed=1))
        for subset in subsets(3):
            if subset.is_empty:
                continue
            encoded = [e if (subset.mask >> i & 1) else None for i, e in enumerate(full)]
            out = mm.conditional_generate(
                vae,
                mm.aggregate_arrays(vae, encoded, subset),
                0,
                np.zeros((2, config.latent_dim)),
                component_u=np.full(2, 0.99),
            )
            assert np.all(np.isfinite(out))


class TestPickComponents:
    def test_zero_weight_component_never_drawn(self):
        assert mm.pick_components(np.array([0.5, 0.0, 0.5]), np.array([0.5])).tolist() == [2]

    def test_draw_past_rounded_total_is_clamped(self):
        weights = np.full(10, 0.1)
        assert np.cumsum(weights)[-1] < 1.0
        assert mm.pick_components(weights, np.array([1.0 - 2.0**-53])).tolist() == [9]


class TestGradientFlowThroughAggregation:
    def test_wb_sigma_sensitivity_equals_weight(self):
        # d(sum of barycenter sigma)/d(member sigma) is exactly the weight
        lam = [0.2, 0.3, 0.5]
        rng = np.random.default_rng(8)
        leaves = [dg.Value(rng.uniform(0.5, 2.0, (4, 3))) for _ in range(3)]
        out = dg.mix([lam], leaves)
        dg.vsum(out).backward()
        for leaf, weight in zip(leaves, lam):
            assert np.all(leaf.grad == weight)


class TestBoundValidity:
    def test_loss_upper_bounds_negative_log_likelihood(self):
        vae, mean, var = linear_gaussian_vae()
        rng = np.random.default_rng(17)
        x = mean + math.sqrt(var) * rng.standard_normal((16, 1))
        losses = []
        for i in range(200):
            noise = dg.rng_stream(99, i).standard_normal((1, 16, 2))
            losses.append(mm.elbo(vae, [x], noise)[0])
        mean_loss = float(np.mean(losses))
        se = float(np.std(losses) / math.sqrt(len(losses)))
        estimate = importance_log_likelihood(vae, [x], SubsetIndex(0b1, 1), 10_000, seed=0)
        assert mean_loss >= -estimate - (5.0 * se + 0.05)
