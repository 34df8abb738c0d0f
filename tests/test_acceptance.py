"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Criteria 9 and 10 train the two shipped 5-modality configurations once
(shared fixture) and evaluate the probe, trend, and coherence targets.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import baryvae.diffgraph as dg
import baryvae.mmvae as mm
from baryvae.barycenter import (
    SubsetIndex,
    WeightedFamily,
    barycenter_objective,
    moe,
    poe,
    subsets,
    wb_diag,
    wb_full,
)
from baryvae.cli import main as cli_main
from baryvae.data import split
from baryvae.cli import _load_json, parse_run_config
from baryvae.evaluation import (
    coherence,
    fit_linear_probe,
    latent_accuracy,
    latent_means,
    test_log_likelihood as importance_log_likelihood,
)
from baryvae.gaussian import DiagGaussian, FullGaussian
from baryvae.linalg import sqrtm_psd

from gradcheck import grad_check
from oracles import (
    importance_weight_cv,
    linear_gaussian_log_marginal,
    linear_gaussian_pair,
    linear_gaussian_vae,
    objective_arrays,
    quad_kl_1d,
    random_diag_gaussian,
    random_full_families,
    random_spd,
    w2sq_1d_quantile,
    w2sq_full,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def pair_divergence(p, q, divergence):
    """D(p, q) as the objective's one-expert, one-row case; forward_kl is KL(p || q)."""
    return float(barycenter_objective(*objective_arrays(p, [q]), divergence)[0])


def random_pair(rng, min_gap=0.01):
    while True:
        p = random_diag_gaussian(rng, 1, sigma_lo=0.5, sigma_hi=2.0)
        q = random_diag_gaussian(rng, 1, sigma_lo=0.5, sigma_hi=2.0)
        if pair_divergence(p, q, "w2sq") >= min_gap:
            return p, q


def random_family(rng, dim, size):
    members = [random_diag_gaussian(rng, dim) for _ in range(size)]
    w = rng.uniform(0.2, 1.0, size)
    return WeightedFamily(tuple(members), w / w.sum())


def test_criterion_1_divergence_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_kl = worst_w2 = 0.0
    for _ in range(200):
        p, q = random_pair(rng)
        kl = pair_divergence(p, q, "forward_kl")
        worst_kl = max(worst_kl, abs(kl - quad_kl_1d(p, q)) / max(kl, 1e-9))
        w2 = pair_divergence(p, q, "w2sq")
        worst_w2 = max(worst_w2, abs(w2 - w2sq_1d_quantile(p, q)) / max(w2, 1e-9))

    worst_sym = worst_commute = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a = FullGaussian(rng.standard_normal(dim), random_spd(rng, dim))
        b = FullGaussian(rng.standard_normal(dim), random_spd(rng, dim))
        worst_sym = max(worst_sym, abs(w2sq_full(a, b) - w2sq_full(b, a)))
        q_mat = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        wa, wb = rng.uniform(0.3, 3.0, dim), rng.uniform(0.3, 3.0, dim)
        ca = FullGaussian(a.mean, (q_mat * wa) @ q_mat.T)
        cb = FullGaussian(b.mean, (q_mat * wb) @ q_mat.T)
        closed = float(np.sum((a.mean - b.mean) ** 2) + np.sum((np.sqrt(wa) - np.sqrt(wb)) ** 2))
        worst_commute = max(worst_commute, abs(w2sq_full(ca, cb) - closed))
    elapsed = time.perf_counter() - start
    criterion(
        1,
        worst_kl <= 1e-4 and worst_w2 <= 1e-4
        and worst_sym <= 1e-8 and worst_commute <= 1e-8 and elapsed < 30.0,
        f"kl rel {worst_kl:.2e}, w2 rel {worst_w2:.2e}, symmetry {worst_sym:.2e}, "
        f"commuting {worst_commute:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_expert_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    poe_violations = 0
    for _ in range(200):
        fam = random_family(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)))
        opt = poe(fam, fam.weights)
        cands = [opt]
        for k in range(100):
            if k < 50:
                cands.append(random_diag_gaussian(rng, fam.dim))
            else:
                scale = 10.0 ** rng.uniform(-3, 0)
                cands.append(
                    DiagGaussian(
                        opt.mean + scale * rng.standard_normal(fam.dim),
                        opt.sigma * np.exp(scale * rng.standard_normal(fam.dim)),
                    )
                )
        best, *at_cands = barycenter_objective(*objective_arrays(fam, cands), "reverse_kl")
        poe_violations += sum(best > at_cand + 1e-9 for at_cand in at_cands)

    # the forward-KL objective at a mixture has no closed form beyond 1-D, so
    # the mixture leg runs on 1-D families where quadrature is exact enough
    moe_violations = 0
    for _ in range(200):
        fam = random_family(rng, 1, int(rng.integers(2, 6)))
        mix = moe(fam)
        at_mix = sum(lam * quad_kl_1d(m, mix) for lam, m in zip(fam.weights, fam.members))
        cands = [random_diag_gaussian(rng, 1) for _ in range(100)]
        at_cands = barycenter_objective(*objective_arrays(fam, cands), "forward_kl")
        moe_violations += sum(at_mix > at_cand + 1e-9 for at_cand in at_cands)
    elapsed = time.perf_counter() - start
    criterion(
        2,
        poe_violations == 0 and moe_violations == 0 and elapsed < 60.0,
        f"poe violations {poe_violations}/20000, moe violations "
        f"{moe_violations}/20000, {elapsed:.1f}s",
    )


def test_criterion_3_barycenter_stationarity():
    rng = np.random.default_rng(103)
    step = 1e-5
    worst = 0.0
    for _ in range(200):
        fam = random_family(rng, int(rng.integers(1, 17)), int(rng.integers(2, 6)))
        out = wb_diag(fam)
        cands = []
        for i in range(out.dim):
            for kind in ("mean", "sigma"):
                plus = {"mean": out.mean.copy(), "sigma": out.sigma.copy()}
                minus = {"mean": out.mean.copy(), "sigma": out.sigma.copy()}
                plus[kind][i] += step
                minus[kind][i] -= step
                cands.append(DiagGaussian(plus["mean"], plus["sigma"]))
                cands.append(DiagGaussian(minus["mean"], minus["sigma"]))
        f = barycenter_objective(*objective_arrays(fam, cands), "w2sq")
        worst = max(worst, float(np.max(np.abs(f[0::2] - f[1::2]) / (2 * step))))
    criterion(3, worst < 1e-6, f"max |finite-difference gradient| {worst:.2e}")


def test_criterion_4_fixed_point_residuals():
    rng = np.random.default_rng(104)
    worst_res = 0.0
    for fam in random_full_families(rng, 100):
        out = wb_full(fam, tol=1e-9, max_iter=200)
        root = sqrtm_psd(out.cov)
        mapped = sum(
            lam * sqrtm_psd(root @ member.cov @ root)
            for lam, member in zip(fam.weights, fam.members)
        )
        res = np.linalg.norm(out.cov - mapped) / (1.0 + np.linalg.norm(out.cov))
        worst_res = max(worst_res, res)

    worst_diag = 0.0
    for _ in range(30):
        dim, size = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        members = [random_diag_gaussian(rng, dim) for _ in range(size)]
        w = rng.uniform(0.2, 1.0, size)
        w /= w.sum()
        expected = wb_diag(WeightedFamily(tuple(members), w))
        full = wb_full(
            WeightedFamily(
                tuple(FullGaussian(g.mean, np.diag(g.sigma**2)) for g in members),
                w,
            )
        )
        worst_diag = max(
            worst_diag, float(np.abs(np.diag(full.cov) - expected.sigma**2).max())
        )
    criterion(
        4,
        worst_res <= 1e-9 and worst_diag <= 1e-8,
        f"max residual {worst_res:.2e}, diagonal mismatch {worst_diag:.2e}",
    )


def test_criterion_5_jensen_bound():
    rng = np.random.default_rng(105)
    worst = -np.inf
    for _ in range(200):
        size = int(rng.integers(2, 5))
        fam = random_family(rng, 1, size)
        cand = random_diag_gaussian(rng, 1)
        arrays = objective_arrays(fam, [cand])
        gap_kl = quad_kl_1d(fam, cand) - barycenter_objective(*arrays, "forward_kl")[0]
        gap_w2 = w2sq_1d_quantile(fam, cand) - barycenter_objective(*arrays, "w2sq")[0]
        worst = max(worst, gap_kl, gap_w2)
    criterion(5, worst <= 1e-6, f"max bound violation {worst:.2e}")


def test_criterion_6_sigma_sandwich():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(500):
        fam = random_family(rng, int(rng.integers(1, 17)), int(rng.integers(1, 6)))
        out = wb_diag(fam)
        sig = np.stack([m.sigma for m in fam.members])
        if np.any(out.sigma < sig.min(axis=0) - 1e-15) or np.any(
            out.sigma > sig.max(axis=0) + 1e-15
        ):
            violations += 1
    criterion(6, violations == 0, f"{violations}/500 families violated the sandwich")


def test_criterion_7_autodiff():
    rng = np.random.default_rng(107)
    store = dg.ParamStore()
    store.add("a", rng.standard_normal((4, 3)) + 0.3)
    store.add("b", rng.standard_normal((3, 4)))
    store.add("c", rng.standard_normal((4, 3)))
    store.add("row", rng.standard_normal(3))
    primitive_builders = {
        "matmul": lambda v: dg.vsum(dg.matmul(v["a"], v["b"])),
        "add": lambda v: dg.vsum(dg.add(v["a"], v["c"])),
        "broadcast_add": lambda v: dg.vsum(dg.add(v["a"], v["row"])),
        "mul": lambda v: dg.vsum(dg.mul(v["a"], v["c"])),
        "tanh": lambda v: dg.vsum(dg.tanh(v["a"])),
        "dense": lambda v: dg.vsum(dg.square(dg.dense(v["b"], v["a"], v["row"]))),
        "dense_tanh": lambda v: dg.vsum(dg.dense(v["b"], v["a"], v["row"], tanh=True)),
        "softplus": lambda v: dg.vsum(dg.softplus(v["a"])),
        "exp": lambda v: dg.vsum(dg.exp(v["a"])),
        "log": lambda v: dg.vsum(dg.log(dg.add(dg.square(v["a"]), 0.5))),
        "sum": lambda v: dg.vsum(v["a"]),
        "square": lambda v: dg.vsum(dg.square(v["a"])),
        "concat": lambda v: dg.vsum(dg.square(dg.concat([v["a"], v["c"]], axis=0))),
    }
    worst_prim = 0.0
    for build in primitive_builders.values():
        worst_prim = max(worst_prim, grad_check(build, store, 1e-5))

    worst_elbo = 0.0
    for method in ("poe", "moe", "wb", "mopoe", "mwb"):
        config = mm.ModelConfig(
            num_modalities=2,
            input_dims=(5, 4),
            latent_dim=3,
            hidden=(6,),
            aggregation=method,
            seed=3,
        )
        vae = mm.MultimodalVae(config)
        batch = [np.random.default_rng(0).random((4, d)) for d in config.input_dims]
        noise = dg.rng_stream(1, 99).standard_normal(
            (mm.num_mixture_components(config), 4, config.latent_dim)
        )
        worst_elbo = max(
            worst_elbo, grad_check(mm.elbo_builder(vae, batch, noise), vae.store, 1e-5)
        )
    criterion(
        7,
        worst_prim < 1e-5 and worst_elbo < 1e-5,
        f"max primitive error {worst_prim:.2e}, max ELBO error {worst_elbo:.2e}",
    )


def test_criterion_8_analytic_log_likelihood():
    vae, mean, var = linear_gaussian_vae()
    rng = np.random.default_rng(108)
    x = mean + math.sqrt(var) * rng.standard_normal((50, 1))
    estimate = importance_log_likelihood(vae, [x], SubsetIndex(0b1, 1), 10_000, seed=2)
    closed = float(
        np.mean(-0.5 * (x - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var))
    )
    gap = abs(estimate - closed)
    criterion(8, gap <= 0.05, f"|estimate - closed form| = {gap:.4f} nat")


def test_multimodal_log_likelihood_closed_form():
    # Criterion 8's check on two modalities, for every aggregator and every
    # proposal subset: the estimate always targets the joint log p(x_0, x_1).
    _, w, b = linear_gaussian_pair("wb")
    rng = np.random.default_rng(108)
    n, samples, z_max = 16, 4096, 4.0
    x = rng.standard_normal((n, 2)) @ w + b
    x += mm.GAUSSIAN_LIK_SIGMA * rng.standard_normal(x.shape)
    batch = [x[:, :2], x[:, 2:]]
    closed = float(np.mean(linear_gaussian_log_marginal(w, b, mm.GAUSSIAN_LIK_SIGMA, x)))
    worst = 0.0
    for method in ("poe", "moe", "wb", "mopoe", "mwb"):
        vae, _, _ = linear_gaussian_pair(method)
        for subset in subsets(2)[1:]:
            estimate = importance_log_likelihood(vae, batch, subset, samples, seed=0)
            cv = importance_weight_cv(
                vae, batch, subset.members(), samples, np.random.default_rng(subset.mask)
            )
            se = math.sqrt(np.sum(cv**2 / samples)) / n
            bias = float(np.mean(cv**2)) / (2 * samples)  # the estimate's O(1/K) shortfall
            gap = estimate - closed
            assert -(z_max * se + bias) <= gap <= z_max * se, (method, subset.mask, gap, se)
            worst = max(worst, abs(gap) / se)
    print(f"multimodal log-likelihood: worst |estimate - closed form| = {worst:.2f} SE")


@pytest.fixture(scope="module")
def shipped_runs():
    runs = {}
    start = time.perf_counter()
    for name in ("toy5_wb", "toy5_mwb"):
        run_config, dataset = parse_run_config(_load_json(str(CONFIG_DIR / f"{name}.json")))
        train_set, test_set = split(
            dataset, run_config.split_spec["train_fraction"], run_config.split_spec["seed"]
        )
        vae, history = mm.train(run_config.model, train_set)
        runs[run_config.model.aggregation] = {
            "vae": vae,
            "history": history,
            "train": train_set,
            "test": test_set,
            "config": run_config,
        }
    runs["train_seconds"] = time.perf_counter() - start
    return runs


def accuracy_by_subset_size(vae, train_set, test_set, probe_samples=500):
    idx = np.arange(min(probe_samples, train_set.num_examples))
    probe_batch = [m[idx] for m in train_set.modalities]
    probe_labels = train_set.labels[idx]
    probe_encoded = mm.encode_arrays(vae, probe_batch)
    test_encoded = mm.encode_arrays(vae, test_set.modalities)
    by_size = {}
    for subset in subsets(vae.config.num_modalities):
        if subset.is_empty:
            continue
        probe_joint = mm.aggregate_arrays(vae, probe_encoded, subset)
        probe = fit_linear_probe(latent_means(probe_joint), probe_labels)
        acc = latent_accuracy(
            probe, latent_means(mm.aggregate_arrays(vae, test_encoded, subset)), test_set.labels
        )
        by_size.setdefault(subset.size, []).append(acc)
    return {size: float(np.mean(values)) for size, values in sorted(by_size.items())}


def test_criterion_9_desk_scale_trend(shipped_runs):
    ok = shipped_runs["train_seconds"] < 600.0
    details = [f"training {shipped_runs['train_seconds']:.0f}s"]
    for method in ("wb", "mwb"):
        run = shipped_runs[method]
        curve = accuracy_by_subset_size(run["vae"], run["train"], run["test"])
        full = curve[run["vae"].config.num_modalities]
        ok = ok and full >= 0.90
        ok = ok and all(curve[k + 1] >= curve[k] - 0.02 for k in range(1, 5))
        details.append(
            f"{method}: acc(5)={full:.3f}, curve=" +
            "/".join(f"{curve[k]:.3f}" for k in sorted(curve))
        )
    criterion(9, ok, "; ".join(details))


def test_criterion_10_coherence(shipped_runs):
    run = shipped_runs["mwb"]
    vae, train_set, test_set = run["vae"], run["train"], run["test"]
    m_count = vae.config.num_modalities
    reference = {
        m: fit_linear_probe(train_set.modalities[m], train_set.labels)
        for m in range(m_count)
    }
    samples = run["config"].eval_spec["coherence_samples"]

    def cross_values(model):
        encoded = mm.encode_arrays(model, test_set.modalities)
        values = []
        for s in range(m_count):
            source = SubsetIndex(1 << s, m_count)
            joint = mm.aggregate_arrays(model, encoded, source)
            values += [
                coherence(model, joint, test_set.labels, reference, source, t, samples, 0)
                for t in range(m_count)
                if s != t
            ]
        return values

    trained = cross_values(vae)
    untrained = cross_values(mm.MultimodalVae(vae.config))
    chance_gap = abs(float(np.mean(untrained)) - 0.1)
    ok = min(trained) >= 0.70 and chance_gap <= 0.07
    criterion(
        10,
        ok,
        f"trained min {min(trained):.3f} / mean {float(np.mean(trained)):.3f}, "
        f"untrained mean {float(np.mean(untrained)):.3f}",
    )


def test_criterion_11_byte_identical_metrics(tmp_path):
    config = {
        "model": {
            "latent_dim": 8,
            "hidden": [32],
            "aggregation": "mwb",
            "beta": 2.5,
            "epochs": 5,
            "batch_size": 32,
            "seed": 4,
        },
        "data": {"toy": {"num_modalities": 3, "examples_per_class": 12, "seed": 2}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config) + "\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["train", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = cli_main(["train", "--config", str(cfg_path), "--out", str(out_b)])
    identical = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    criterion(
        11,
        code_a == 0 and code_b == 0 and identical,
        f"exit codes {code_a}/{code_b}, metrics byte-identical: {identical}",
    )
