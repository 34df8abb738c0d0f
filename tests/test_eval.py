import math
import threading

import numpy as np
import pytest

import baryvae.diffgraph as dg
import baryvae.evaluation as ev
import baryvae.mmvae as mm
from baryvae.barycenter import SubsetIndex
from baryvae.data import ToyConfig, gen_toy, split
from baryvae.errors import NumericError
from baryvae.evaluation import (
    EvalReport,
    LinearProbe,
    coherence,
    evaluate_model,
    fit_linear_probe,
    latent_accuracy,
    latent_means,
    test_log_likelihood as importance_log_likelihood,
)
from baryvae.gaussian import LOG_2PI

from oracles import linear_gaussian_vae


def two_clusters(n=60, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = (np.arange(n) % 2).astype(np.int64)
    x[y == 1] += gap
    return x, y


class TestLinearProbe:
    def test_separable_clusters_reach_full_accuracy(self):
        x, y = two_clusters()
        probe = fit_linear_probe(x, y)
        assert latent_accuracy(probe, x, y) == 1.0
        assert probe.trained_on == 60

    def test_shuffled_labels_give_chance_accuracy(self):
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((400, 8))
            y = rng.integers(0, 10, 400)
            x_test = rng.standard_normal((400, 8))
            y_test = rng.integers(0, 10, 400)
            probe = fit_linear_probe(x, y)
            accs.append(latent_accuracy(probe, x_test, y_test))
        assert abs(float(np.mean(accs)) - 0.1) <= 0.05

    def test_deterministic_refit(self):
        x, y = two_clusters(seed=3)
        a = fit_linear_probe(x, y)
        b = fit_linear_probe(x, y)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValueError):
            fit_linear_probe(x, np.zeros(10, dtype=int))

    def test_negative_labels_rejected(self):
        # a label of -1 would index the last class's one-hot column
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=">= 0"):
            fit_linear_probe(x, np.array([-1, -1, 1, 1]))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinearProbe(np.array([[np.inf, 0.0]]), np.zeros(1))


class TestLatentAccuracy:
    def test_empty_eval_set_is_an_error(self):
        x, y = two_clusters()
        probe = fit_linear_probe(x, y)
        with pytest.raises(ValueError):
            latent_accuracy(probe, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_invariant_to_example_order(self):
        x, y = two_clusters(seed=5)
        probe = fit_linear_probe(x, y)
        perm = np.random.default_rng(1).permutation(len(y))
        assert latent_accuracy(probe, x, y) == latent_accuracy(probe, x[perm], y[perm])

    def test_dim_mismatch(self):
        x, y = two_clusters()
        probe = fit_linear_probe(x, y)
        with pytest.raises(ValueError):
            latent_accuracy(probe, np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_ties_break_toward_lower_class(self):
        probe = LinearProbe(np.zeros((3, 2)), np.zeros(3))
        preds = probe.predict(np.ones((5, 2)))
        assert np.all(preds == 0)


class ConstantClassifier:
    def __init__(self, label):
        self.label = label

    def predict(self, features):
        return np.full(len(features), self.label, dtype=np.int64)


def tiny_vae_and_data(method="wb", seed=0, epochs=0):
    ds = gen_toy(ToyConfig(num_modalities=2, examples_per_class=12, seed=4))
    train_set, test_set = split(ds, 0.75, seed=1)
    config = mm.ModelConfig(
        num_modalities=2,
        input_dims=tuple(ds.dims),
        latent_dim=4,
        hidden=(16,),
        aggregation=method,
        batch_size=16,
        epochs=epochs,
        seed=seed,
    )
    if epochs:
        vae, _ = mm.train(config, train_set)
    else:
        vae = mm.MultimodalVae(config)
    return vae, train_set, test_set


class TestCoherence:
    def test_oracle_classifier_gives_one(self):
        vae, _, test_set = tiny_vae_and_data()
        only_class_3 = test_set.take(np.flatnonzero(test_set.labels == 3))
        source = SubsetIndex(0b01, 2)
        value = coherence(
            vae,
            mm.aggregate_arrays(vae, mm.encode_arrays(vae, only_class_3.modalities), source),
            only_class_3.labels,
            {1: ConstantClassifier(3)},
            source,
            target=1,
            num_samples=10,
            seed=0,
        )
        assert value == 1.0

    def test_untrained_model_near_chance(self):
        vae, train_set, test_set = tiny_vae_and_data()
        ref = {
            m: fit_linear_probe(train_set.modalities[m], train_set.labels)
            for m in range(2)
        }
        source = SubsetIndex(0b01, 2)
        joint = mm.aggregate_arrays(vae, mm.encode_arrays(vae, test_set.modalities), source)
        value = coherence(
            vae,
            joint,
            test_set.labels,
            ref,
            source,
            target=1,
            num_samples=60,
            seed=0,
        )
        assert abs(value - 0.1) <= 0.07

    def test_range_and_missing_classifier(self):
        vae, _, test_set = tiny_vae_and_data()
        source, labels = SubsetIndex(0b01, 2), test_set.labels
        joint = mm.aggregate_arrays(vae, mm.encode_arrays(vae, test_set.modalities), source)
        with pytest.raises(ValueError):
            coherence(vae, joint, labels, {}, source, 1, 10, 0)
        reference = {1: ConstantClassifier(0)}
        value = coherence(vae, joint, labels, reference, source, 1, 10, 0)
        assert 0.0 <= value <= 1.0
        # at least one draw, and one label per row of the joint
        for count in (0, -3):
            with pytest.raises(ValueError, match="num_samples must be >= 1"):
                coherence(vae, joint, labels, reference, source, 1, count, 0)
        weights, mus, sigmas = joint
        six = weights, mus[:, :6], sigmas[:, :6]
        with pytest.raises(ValueError, match="4 labels for a joint of 6 rows"):
            coherence(vae, six, labels[:4], reference, source, 1, 10, 0)


class TestImportanceLogLikelihood:
    def test_k_equals_one_with_exact_posterior_is_the_marginal(self):
        # with q equal to the true posterior the weight log p(x|z) + log p(z)
        # - log q(z) is constant in z, so a single sample already gives log p(x),
        # and every entry of the log-weight matrix is its row's log p(x)
        vae, mean, var = linear_gaussian_vae(sigma_enc_scale=1.0)
        x = np.array([[0.4]])
        closed = float(
            -0.5 * (0.4 - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var)
        )
        for seed in (7, 8, 9):
            est = importance_log_likelihood(
                vae, [x], SubsetIndex(0b1, 1), num_samples=1, seed=seed
            )
            assert est == pytest.approx(closed, abs=1e-9)
        xs = np.array([[-1.5], [0.4], [2.2]])
        rows = -0.5 * (xs - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var)
        subset = SubsetIndex(0b1, 1)
        joint = mm.aggregate_arrays(vae, mm.encode_arrays(vae, [xs]), subset)
        logs = ev._log_weights(vae, joint, [xs], subset, num_samples=64, seed=7)
        assert logs.shape == (3, 64)
        np.testing.assert_allclose(logs, np.broadcast_to(rows, (3, 64)), rtol=0, atol=1e-9)

    def test_estimate_grows_with_sample_count(self):
        vae, mean, var = linear_gaussian_vae(sigma_enc_scale=1.6)
        rng = np.random.default_rng(2)
        x = mean + math.sqrt(var) * rng.standard_normal((8, 1))
        subset = SubsetIndex(0b1, 1)
        low = np.mean(
            [importance_log_likelihood(vae, [x], subset, 1, seed=s) for s in range(20)]
        )
        high = np.mean(
            [importance_log_likelihood(vae, [x], subset, 64, seed=s) for s in range(20)]
        )
        assert high >= low - 0.1

    def test_analytic_marginal_recovered(self):
        vae, mean, var = linear_gaussian_vae()
        rng = np.random.default_rng(3)
        x = mean + math.sqrt(var) * rng.standard_normal((40, 1))
        est = importance_log_likelihood(vae, [x], SubsetIndex(0b1, 1), 10_000, seed=1)
        closed = float(
            np.mean(-0.5 * (x - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var))
        )
        assert est == pytest.approx(closed, abs=0.05)

    def test_sample_count_validated(self):
        vae, _, _ = linear_gaussian_vae()
        with pytest.raises(ValueError):
            importance_log_likelihood(vae, [np.zeros((1, 1))], SubsetIndex(0b1, 1), 0, 0)
        # the batch must have the joint's row count, in either direction
        vae, _, test_set = tiny_vae_and_data(method="mwb")
        subset = SubsetIndex(0b11, 2)
        for joint_rows, batch_rows in ((2, 6), (6, 2)):
            rows = test_set.take(np.arange(joint_rows)).modalities
            joint = mm.aggregate_arrays(vae, mm.encode_arrays(vae, rows), subset)
            batch = test_set.take(np.arange(batch_rows)).modalities
            message = f"batch has {batch_rows} rows, but the joint has {joint_rows}"
            with pytest.raises(ValueError, match=message):
                ev._log_likelihood(vae, joint, batch, subset, 4, 0)


class TestEvalReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            EvalReport({1: 1.2}, {}, {})
        with pytest.raises(ValueError):
            EvalReport({}, {(1, 0): -0.1}, {})

    def test_full_sweep_structure(self):
        vae, train_set, test_set = tiny_vae_and_data(method="mwb", epochs=2)
        report = evaluate_model(
            vae,
            train_set,
            test_set,
            importance_samples=16,
            probe_samples=100,
            coherence_samples=20,
            loglik_examples=8,
            seed=0,
        )
        assert sorted(report.latent_accuracy) == [1, 2, 3]
        assert sorted(report.log_likelihood) == [1, 2, 3]
        assert sorted(report.coherence) == [(1, 1), (2, 0)]
        assert all(0.0 <= v <= 1.0 for v in report.latent_accuracy.values())
        assert all(math.isfinite(v) for v in report.log_likelihood.values())
        expected_count = min(100, train_set.num_examples)
        assert all(n == expected_count for n in report.probe_train_counts.values())

    def test_encodes_each_example_set_once(self, monkeypatch):
        vae, train_set, test_set = tiny_vae_and_data(method="mwb")
        original, rows = mm.encode_arrays, []
        original_graph, graph_calls = mm._encode_graph, []
        original_aggregate, aggregated = mm.aggregate_arrays, []

        def counting(vae, batch):
            rows.append(len(batch[0]))
            return original(vae, batch)

        def counting_graph(values, config, m, x):
            graph_calls.append(m)
            return original_graph(values, config, m, x)

        def counting_aggregate(vae, encoded, subset):
            aggregated.append(subset.mask)
            return original_aggregate(vae, encoded, subset)

        monkeypatch.setattr(mm, "encode_arrays", counting)
        monkeypatch.setattr(mm, "_encode_graph", counting_graph)
        monkeypatch.setattr(mm, "aggregate_arrays", counting_aggregate)
        evaluate_model(
            vae,
            train_set,
            test_set,
            importance_samples=4,
            probe_samples=20,
            coherence_samples=5,
            loglik_examples=3,
            seed=0,
        )
        # the probe batch and the test set; the log-likelihood rows are the
        # test encoding's first rows
        assert rows == [20, test_set.num_examples]
        # the encoder runs only through encode_arrays, once per modality per
        # batch: coherence generates from the test set's encoding
        assert len(graph_calls) == 2 * 2
        # each subset's joint is built once per example set, and every
        # protocol reads rows of it
        assert sorted(aggregated) == [1, 1, 2, 2, 3, 3]

    def test_latent_means_weighted_over_components(self):
        vae, train_set, _ = tiny_vae_and_data(method="mwb")
        batch = [m[:3] for m in train_set.modalities]
        subset = SubsetIndex(0b11, 2)
        joint = weights, mus, _ = mm.aggregate_arrays(vae, mm.encode_arrays(vae, batch), subset)
        reps = latent_means(joint)
        expected = sum(w * mus[k] for k, w in enumerate(weights))
        assert np.allclose(reps, expected, atol=1e-12)


def test_evaluate_model_keeps_the_heap_mapped(monkeypatch):
    calls = []
    monkeypatch.setattr(ev, "keep_heap_mapped", lambda: calls.append("eval"))
    vae, train_set, test_set = tiny_vae_and_data()
    evaluate_model(
        vae, train_set, test_set, importance_samples=4, probe_samples=10,
        coherence_samples=4, loglik_examples=2, seed=0,
    )
    assert calls == ["eval"]


class TestSubsetThreads:
    """evaluate_model runs its subsets on the caller plus one thread per further CPU."""

    @staticmethod
    def evaluate(vae, train_set, test_set):
        return evaluate_model(
            vae,
            train_set,
            test_set,
            importance_samples=8,
            probe_samples=30,
            coherence_samples=10,
            loglik_examples=4,
            seed=2,
        )

    def test_report_does_not_depend_on_cpu_count(self, monkeypatch):
        vae, train_set, test_set = tiny_vae_and_data(method="mwb", epochs=1)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(dg, "_cpu_count", lambda cpus=cpus: cpus)
            reports.append(self.evaluate(vae, train_set, test_set))
        for report in reports[1:]:
            assert vars(report) == vars(reports[0])
            for key, value in vars(report).items():
                if isinstance(value, dict):
                    assert list(value) == list(vars(reports[0])[key])

    @staticmethod
    def hold_first_two_subsets(monkeypatch, on_arrival):
        """Patch the log-likelihood so that subsets 1 and 2 meet at a barrier,
        which they pass only on two threads; `on_arrival(mask)` runs after it.
        Returns the masks that reach the log-likelihood, in order."""
        barrier = threading.Barrier(2, timeout=30)
        original = ev._log_likelihood
        reached = []

        def held(vae, joint, batch, subset, num_samples, seed):
            reached.append(subset.mask)
            if subset.mask in (1, 2):
                barrier.wait()
                on_arrival(subset.mask)
            return original(vae, joint, batch, subset, num_samples, seed)

        monkeypatch.setattr(dg, "_cpu_count", lambda: 2)
        monkeypatch.setattr(ev, "_log_likelihood", held)
        return reached

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        vae, train_set, test_set = tiny_vae_and_data(method="mwb")
        seen = {}

        def record(mask):
            seen[mask] = (threading.get_ident(), np.geterr())

        self.hold_first_two_subsets(monkeypatch, record)
        with np.errstate(all="ignore"):
            self.evaluate(vae, train_set, test_set)
        assert sorted(seen) == [1, 2]
        assert seen[1][0] != seen[2][0]
        for _, settings in seen.values():
            assert set(settings.values()) == {"ignore"}

    def test_earliest_failing_subset_error_is_raised(self, monkeypatch):
        vae, train_set, test_set = tiny_vae_and_data(method="mwb")
        second_failed = threading.Event()
        failed = []

        def fail(mask):
            # subset 2 fails first, subset 1 after it
            if mask == 1:
                assert second_failed.wait(timeout=30)
            failed.append(mask)
            if mask == 2:
                second_failed.set()
            raise NumericError(f"subset {mask} failed")

        reached = self.hold_first_two_subsets(monkeypatch, fail)
        with pytest.raises(NumericError, match="subset 1 failed"):
            self.evaluate(vae, train_set, test_set)
        assert failed == [2, 1]
        # subset 3 is not started once an earlier one has failed
        assert sorted(reached) == [1, 2]
