import math

import numpy as np
import pytest

import baryvae.barycenter as bc
import baryvae.diffgraph as dg
from baryvae.barycenter import (
    SubsetIndex,
    WeightedFamily,
    barycenter_objective,
    moe,
    mopoe,
    mwb,
    poe,
    subsets,
    wb_diag,
    wb_full,
)
from baryvae.errors import NumericError
from baryvae.gaussian import DiagGaussian, FullGaussian, mixture_log_density
from baryvae.linalg import sqrtm_psd

from oracles import (
    grid_product_gaussian,
    objective_arrays,
    oracle_components,
    plain_wb_fixed_point,
    quad_kl_1d,
    random_diag_gaussian,
    random_full_families,
    random_spd,
    stacked_arrays,
    w2sq_1d_quantile,
)


def g1(mean, sigma):
    return DiagGaussian([mean], [sigma])


def random_family(rng, dim=None, size=None, sigma_lo=0.3, sigma_hi=2.5):
    dim = dim or int(rng.integers(1, 9))
    size = size or int(rng.integers(1, 6))
    members = [
        random_diag_gaussian(rng, dim, sigma_lo=sigma_lo, sigma_hi=sigma_hi)
        for _ in range(size)
    ]
    w = rng.uniform(0.2, 1.0, size)
    return WeightedFamily(tuple(members), w / w.sum())


class TestFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedFamily((), np.array([]))

    def test_rejects_bad_weights(self):
        members = (g1(0, 1), g1(1, 1))
        with pytest.raises(ValueError):
            WeightedFamily(members, [0.7, 0.7])
        with pytest.raises(ValueError):
            WeightedFamily(members, [1.5, -0.5])

    def test_uniform(self):
        fam = WeightedFamily.uniform([g1(0, 1), g1(1, 1), g1(2, 1)])
        assert np.allclose(fam.weights, 1 / 3)


class TestSubsets:
    def test_single_modality(self):
        out = subsets(1)
        assert [s.mask for s in out] == [0, 1]
        assert out[0].is_empty and out[1].members() == (0,)

    def test_two_modalities(self):
        out = subsets(2)
        assert [s.mask for s in out] == [0, 1, 2, 3]
        assert len(out) == 4

    def test_powerset_cardinality(self):
        assert len(subsets(3)) == 8

    def test_range_validated(self):
        for bad in (0, 17):
            with pytest.raises(ValueError):
                subsets(bad)
        with pytest.raises(ValueError):
            SubsetIndex(4, 2)


class TestPoe:
    def test_single_expert_identity(self):
        q = g1(1.5, 0.8)
        out = poe(WeightedFamily.uniform([q]), np.ones(1))
        assert np.allclose(out.mean, q.mean) and np.allclose(out.sigma, q.sigma)

    def test_two_experts_grid_oracle(self):
        fam = WeightedFamily.uniform([g1(0, 1), g1(2, 1)])
        out = poe(fam, np.ones(2))
        assert out.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert out.sigma[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        grid_mean, grid_sigma = grid_product_gaussian(fam.members, [1.0, 1.0])
        assert out.mean[0] == pytest.approx(grid_mean, abs=1e-6)
        assert out.sigma[0] == pytest.approx(grid_sigma, abs=1e-6)

    def test_fractional_exponents_grid_oracle(self):
        fam = WeightedFamily.uniform([g1(-1, 0.7), g1(2, 1.4)])
        out = poe(fam, np.array([0.3, 0.7]))
        grid_mean, grid_sigma = grid_product_gaussian(fam.members, [0.3, 0.7])
        assert out.mean[0] == pytest.approx(grid_mean, abs=1e-6)
        assert out.sigma[0] == pytest.approx(grid_sigma, abs=1e-6)

    def test_identical_experts_half_exponents(self):
        q = g1(0.5, 1.2)
        out = poe(WeightedFamily.uniform([q, q]), np.array([0.5, 0.5]))
        assert np.allclose(out.mean, q.mean)
        assert np.allclose(out.sigma, q.sigma)

    def test_all_zero_exponents_rejected(self):
        fam = WeightedFamily.uniform([g1(0, 1), g1(1, 1)])
        with pytest.raises(ValueError):
            poe(fam, np.zeros(2))

    def test_mean_in_convex_hull(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            fam = random_family(rng)
            out = poe(fam, fam.weights)
            means = np.stack([m.mean for m in fam.members])
            assert np.all(out.mean >= means.min(axis=0) - 1e-12)
            assert np.all(out.mean <= means.max(axis=0) + 1e-12)


class TestMoe:
    def test_returns_the_family_itself(self):
        fam = WeightedFamily((g1(0.0, 1.0), g1(2.0, 0.5)), [0.3, 0.7])
        assert moe(fam) is fam

    def test_single_member(self):
        q = g1(0.3, 1.1)
        mix = moe(WeightedFamily.uniform([q]))
        assert len(mix.members) == 1
        assert np.allclose(mix.members[0].mean, q.mean)

    def test_identical_members_density(self):
        q = g1(0.0, 1.0)
        mix = moe(WeightedFamily.uniform([q, q]))
        xs = np.array([[-2.0], [0.0], [1.3]])
        got = mixture_log_density(*stacked_arrays(mix), xs)
        assert got == pytest.approx(mixture_log_density(*stacked_arrays(q), xs), abs=1e-12)

    def test_forward_kl_optimality_vs_random_candidates(self):
        rng = np.random.default_rng(32)
        fam = random_family(rng, dim=1, size=3)
        mix = moe(fam)
        # objective at the mixture itself, by quadrature
        at_mix = sum(
            lam * quad_kl_1d(m, mix) for lam, m in zip(fam.weights, fam.members)
        )
        cands = [random_diag_gaussian(rng, 1) for _ in range(100)]
        at_cands = barycenter_objective(*objective_arrays(fam, cands), "forward_kl")
        assert np.all(at_mix <= at_cands + 1e-6)


class TestWbDiag:
    def test_even_average(self):
        fam = WeightedFamily.uniform([g1(0, 1), g1(2, 3)])
        out = wb_diag(fam)
        assert out.mean[0] == pytest.approx(1.0) and out.sigma[0] == pytest.approx(2.0)

    def test_single_member(self):
        q = g1(0.4, 0.9)
        out = wb_diag(WeightedFamily.uniform([q]))
        assert np.allclose(out.mean, q.mean) and np.allclose(out.sigma, q.sigma)

    def test_weighted_average(self):
        fam = WeightedFamily((g1(0, 1), g1(4, 5)), [0.25, 0.75])
        out = wb_diag(fam)
        assert out.mean[0] == pytest.approx(3.0) and out.sigma[0] == pytest.approx(4.0)

    def test_sigma_sandwich(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            fam = random_family(rng)
            out = wb_diag(fam)
            sigmas = np.stack([m.sigma for m in fam.members])
            assert np.all(out.sigma >= sigmas.min(axis=0) - 1e-15)
            assert np.all(out.sigma <= sigmas.max(axis=0) + 1e-15)

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(34)
        step = 1e-5
        for _ in range(50):
            fam = random_family(rng, dim=int(rng.integers(1, 17)))
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
            assert np.max(np.abs(f[0::2] - f[1::2]) / (2 * step)) < 1e-6


class TestWbFull:
    def test_identical_members_fixed_by_inspection(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        member = FullGaussian([1.0, -1.0], cov)
        fam = WeightedFamily.uniform([member, member, member])
        out = wb_full(fam)
        assert np.allclose(out.cov, cov, atol=1e-12)
        assert np.allclose(out.mean, member.mean)

    @pytest.mark.parametrize("cov", [[[2.0, 0.3], [0.3, 0.7]], [[8e307]]])
    def test_single_member_is_its_own_barycenter(self, cov):
        # iterating on the 8e307 member would overflow root @ c @ root
        member = FullGaussian(np.arange(len(cov)) - 0.5, cov)
        out = wb_full(WeightedFamily.uniform([member]))
        assert np.array_equal(out.mean, member.mean)
        assert np.array_equal(out.cov, member.cov)

    def test_diagonal_family_matches_wb_diag(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            d, m = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            diag_members = [random_diag_gaussian(rng, d) for _ in range(m)]
            w = rng.uniform(0.2, 1.0, m)
            w /= w.sum()
            fam_d = WeightedFamily(tuple(diag_members), w)
            fam_f = WeightedFamily(
                tuple(
                    FullGaussian(g.mean, np.diag(g.sigma**2))
                    for g in diag_members
                ),
                w,
            )
            expected = wb_diag(fam_d)
            out = wb_full(fam_f)
            assert np.allclose(np.diag(out.cov), expected.sigma**2, atol=1e-8)
            assert np.allclose(out.mean, expected.mean, atol=1e-12)

    def test_scalar_case_matches_wb_diag(self):
        fam_d = WeightedFamily((g1(0, 1), g1(2, 2)), [0.5, 0.5])
        fam_f = WeightedFamily(
            tuple(FullGaussian(g.mean, [[float(g.sigma[0] ** 2)]]) for g in fam_d.members),
            [0.5, 0.5],
        )
        out = wb_full(fam_f)
        expected = wb_diag(fam_d)
        assert out.cov[0, 0] == pytest.approx(expected.sigma[0] ** 2, abs=1e-8)

    def test_fixed_point_residual_contract(self):
        for fam in random_full_families(np.random.default_rng(36), 25):
            out = wb_full(fam, tol=1e-9)
            root = sqrtm_psd(out.cov)
            mapped = sum(
                lam * sqrtm_psd(root @ mm.cov @ root)
                for lam, mm in zip(fam.weights, fam.members)
            )
            residual = np.linalg.norm(out.cov - mapped)
            assert residual <= 1e-9 * np.linalg.norm(out.cov)

    def test_matches_plain_map_oracle(self):
        # Two routes to the same fixed point: the Alvarez-Esteban update in
        # wb_full and the plain map S <- T(S) on LAPACK roots, each run to
        # its own stopping point.
        rng = np.random.default_rng(38)
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(2, 6))) for _ in range(20)]
        shapes += [(16, 2), (16, 8), (32, 2), (32, 8)]
        for d, m in shapes:
            covs = [random_spd(rng, d) for _ in range(m)]
            w = rng.uniform(0.2, 1.0, m)
            w /= w.sum()
            fam = WeightedFamily(tuple(FullGaussian(np.zeros(d), c) for c in covs), w)
            out = wb_full(fam).cov
            expected = plain_wb_fixed_point(covs, w)
            assert np.linalg.norm(out - expected) <= 1e-8 * np.linalg.norm(out)

    def test_commuting_members_closed_form(self):
        # Members Q diag(e_m) Q^T share eigenvectors, so the barycenter is
        # Q diag((sum_m lam_m sqrt(e_m))^2) Q^T. It is 1-homogeneous, so the
        # members scaled by 4^k are held to the closed form times 4^k, with
        # a tolerance relative to it; at k = -18 the smallest eigenvalue,
        # 0.3 * 4^-18, still clears the 1e-12 floor.
        rng = np.random.default_rng(39)
        for d, m in [(3, 2), (8, 5), (32, 8)]:
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            eigs = rng.uniform(0.3, 3.0, (m, d))
            w = rng.uniform(0.2, 1.0, m)
            w /= w.sum()
            for k in (-18, -10, 0, 10):
                scale = math.ldexp(1.0, 2 * k)
                fam = WeightedFamily(
                    tuple(FullGaussian(np.zeros(d), scale * (q * e) @ q.T) for e in eigs), w
                )
                out = wb_full(fam).cov
                expected = scale * (q * (w @ np.sqrt(eigs)) ** 2) @ q.T
                assert np.linalg.norm(out - expected) <= 1e-8 * np.linalg.norm(expected), k

    def test_converges_in_15_iterations_on_criterion_4_corpus(self):
        # The plain map S <- T(S) takes up to 38 iterations on these families.
        for fam in random_full_families(np.random.default_rng(104), 100):
            wb_full(fam, max_iter=15)

    def test_nonconvergence_error(self):
        rng = np.random.default_rng(37)
        fam = WeightedFamily.uniform(
            [FullGaussian(rng.standard_normal(3), random_spd(rng, 3)) for _ in range(3)]
        )
        with pytest.raises(NumericError) as err:
            wb_full(fam, tol=1e-14, max_iter=1)
        assert "residual" in err.value.details and "iterations" in err.value.details

    def test_tol_validated(self):
        fam = WeightedFamily.uniform([FullGaussian([0.0], [[1.0]])])
        for kwargs in (
            {"tol": 0.0},
            {"tol": -1e-9},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_iter": -1},
            {"max_iter": 1.5},
        ):
            with pytest.raises(ValueError):
                wb_full(fam, **kwargs)


class TestPowersetMixtures:
    def test_mopoe_single_modality(self):
        prior = g1(0, 1)
        q = g1(2, 0.5)
        mix = mopoe(WeightedFamily.uniform([q]))
        assert np.allclose(mix.weights, [0.5, 0.5])
        assert np.allclose(mix.members[0].mean, prior.mean)
        assert np.allclose(mix.members[1].mean, q.mean)

    def test_mopoe_identical_experts(self):
        prior = g1(0, 1)
        q = g1(1.0, 0.8)
        mix = mopoe(WeightedFamily.uniform([q, q]))
        assert np.allclose(mix.weights, 0.25)
        assert np.allclose(mix.members[0].sigma, prior.sigma)
        assert np.allclose(mix.members[1].mean, q.mean)
        assert np.allclose(mix.members[2].mean, q.mean)
        # the full-set product of the two identical experts sharpens by sqrt(2)
        assert np.allclose(mix.members[3].mean, q.mean)
        assert np.allclose(mix.members[3].sigma, q.sigma / math.sqrt(2.0))

    def test_component_count(self):
        fam = WeightedFamily.uniform(
            [random_diag_gaussian(np.random.default_rng(38), 2) for _ in range(3)]
        )
        assert len(mopoe(fam).members) == 8
        assert len(mwb(fam).members) == 8
        assert mopoe(fam).weights.sum() == 1.0
        assert mwb(fam).weights.sum() == 1.0

    def test_mwb_two_experts(self):
        mix = mwb(WeightedFamily.uniform([g1(0, 1), g1(2, 3)]))
        assert np.allclose(mix.weights, 0.25)
        comps = mix.members
        assert comps[1].mean[0] == 0.0 and comps[1].sigma[0] == 1.0
        assert comps[2].mean[0] == 2.0 and comps[2].sigma[0] == 3.0
        assert comps[3].mean[0] == 1.0 and comps[3].sigma[0] == 2.0

    def test_mwb_identical_experts(self):
        q = g1(0.7, 1.4)
        mix = mwb(WeightedFamily.uniform([q, q]))
        for comp in mix.members[1:]:
            assert np.allclose(comp.mean, q.mean) and np.allclose(comp.sigma, q.sigma)


class TestObjective:
    def test_zero_at_own_member(self):
        q = g1(0.5, 1.3)
        fam = WeightedFamily.uniform([q])
        for divergence in bc.DIVERGENCES:
            assert barycenter_objective(*objective_arrays(fam, [q]), divergence).tolist() == [0.0]

    def test_unknown_divergence(self):
        fam = WeightedFamily.uniform([g1(0, 1)])
        with pytest.raises(ValueError):
            barycenter_objective(*objective_arrays(fam, [g1(0, 1)]), "hellinger")

    @pytest.mark.parametrize(
        "shapes",
        [
            [(2,), (2, 3, 4), (2, 3, 4), (3, 5), (3, 5)],  # candidates' d
            [(2,), (2, 3, 4), (2, 3, 4), (2, 4), (2, 4)],  # candidates' n
            [(3,), (2, 3, 4), (2, 3, 4), (3, 4), (3, 4)],  # weights' M
            [(2,), (2, 3, 4), (2, 3, 5), (3, 4), (3, 4)],  # sigmas against means
            [(2,), (2, 3, 4), (2, 3, 4), (3, 4), (3, 5)],  # q_sigma against q_mean
            [(2, 1), (2, 3, 4), (2, 3, 4), (3, 4), (3, 4)],  # weights not a vector
            [(2,), (2, 4), (2, 4), (4,), (4,)],  # candidates not rows
        ],
    )
    def test_shape_mismatch_raises(self, shapes):
        with pytest.raises(ValueError, match="expected weights"):
            barycenter_objective(*(np.ones(shape) for shape in shapes), "w2sq")

    def test_wb_minimizes_w2_objective(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            fam = random_family(rng, dim=int(rng.integers(1, 5)))
            cands = [wb_diag(fam)] + [random_diag_gaussian(rng, fam.dim) for _ in range(100)]
            best, *at_cands = barycenter_objective(*objective_arrays(fam, cands), "w2sq")
            assert np.all(best <= np.array(at_cands) + 1e-9)

    def test_weighted_poe_minimizes_reverse_kl(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            fam = random_family(rng, dim=int(rng.integers(1, 5)))
            opt = poe(fam, fam.weights)
            cands = [opt]
            for _ in range(100):
                scale = 10.0 ** rng.uniform(-3, 0)
                cands.append(
                    DiagGaussian(
                        opt.mean + scale * rng.standard_normal(fam.dim),
                        opt.sigma * np.exp(scale * rng.standard_normal(fam.dim)),
                    )
                )
            best, *at_cands = barycenter_objective(*objective_arrays(fam, cands), "reverse_kl")
            assert np.all(best <= np.array(at_cands) + 1e-9)


class TestJensenBound:
    def test_forward_kl_and_w2(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            size = int(rng.integers(2, 5))
            fam = random_family(rng, dim=1, size=size)
            cand = random_diag_gaussian(rng, 1)
            arrays = objective_arrays(fam, [cand])
            lhs_kl = quad_kl_1d(fam, cand)
            rhs_kl = barycenter_objective(*arrays, "forward_kl")[0]
            assert lhs_kl <= rhs_kl + 1e-6

            lhs_w2 = w2sq_1d_quantile(fam, cand)
            rhs_w2 = barycenter_objective(*arrays, "w2sq")[0]
            assert lhs_w2 <= rhs_w2 + 1e-6


class TestKernel:
    """`mixing` + `joint` against the per-subset loops of `oracle_components`."""

    @pytest.mark.parametrize("method", bc.METHODS)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_per_subset_oracle(self, method, m, uniform):
        rng = np.random.default_rng(100 * m + uniform)
        n, d = 3, 4
        mus = [rng.normal(0.0, 2.0, (n, d)) for _ in range(m)]
        sigmas = [rng.uniform(0.2, 2.0, (n, d)) for _ in range(m)]
        weights = np.full(m, 1.0 / m) if uniform else rng.dirichlet(np.ones(m))
        comp_w, rows, natural = bc.mixing(method, weights)
        assert rows.shape == (len(comp_w), m + 1)
        mean, sigma = bc.joint(rows, natural, mus, sigmas, np.zeros((n, d)))
        expected = oracle_components(method, mus, sigmas, weights)
        assert np.array_equal(comp_w, [w for w, _, _ in expected])
        k = len(expected)
        assert mean.shape == sigma.shape == (k * n, d)
        np.testing.assert_allclose(
            mean.reshape(k, n, d), [mu for _, mu, _ in expected], rtol=1e-14, atol=0
        )
        np.testing.assert_allclose(
            sigma.reshape(k, n, d), [s for _, _, s in expected], rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize("method", bc.METHODS)
    def test_only_weighted_methods_read_weights(self, method):
        a, b = bc.mixing(method, [0.5, 0.5]), bc.mixing(method, [0.2, 0.8])
        same = all(np.array_equal(x, y) for x, y in zip(a, b))
        assert same == (method not in bc.WEIGHTED_METHODS)

    def test_empty_family_gives_prior_or_error(self):
        for method in ("mopoe", "mwb"):
            weights, rows, _ = bc.mixing(method, [])
            assert np.array_equal(weights, [1.0]) and np.array_equal(rows, [[1.0]])
        for method in ("poe", "moe", "wb"):
            with pytest.raises(ValueError):
                bc.mixing(method, [])

    def test_powerset_table_capped_like_subsets(self):
        for method in ("mopoe", "mwb"):
            with pytest.raises(ValueError, match="at most 16 experts, got 17"):
                bc.mixing(method, np.full(17, 1.0 / 17))
        for method, rows in (("poe", 1), ("moe", 17), ("wb", 1)):
            assert len(bc.mixing(method, np.full(17, 1.0 / 17))[1]) == rows

    @pytest.mark.parametrize("method", ["mopoe", "mwb"])
    def test_powerset_table_built_once_and_read_only(self, method):
        for m in range(1, 7):
            weights, rows, natural = bc.mixing(method, np.full(m, 1.0 / m))
            # the table ignores the family weights, so any weights share it
            again = bc.mixing(method, np.random.default_rng(m).dirichlet(np.ones(m)))
            assert again[0] is weights and again[1] is rows
            assert not (weights.flags.writeable or rows.flags.writeable)
            with pytest.raises(ValueError):
                rows[0, 0] = 2.0
            fresh_weights, fresh_rows = bc._powerset_table.__wrapped__(m, natural)
            assert np.array_equal(weights, fresh_weights) and np.array_equal(rows, fresh_rows)

    def test_graph_and_array_routes_agree(self):
        # the same call builds a differentiable graph from Values
        rng = np.random.default_rng(7)
        mus = [rng.normal(size=(2, 3)) for _ in range(3)]
        sigmas = [rng.uniform(0.5, 1.5, (2, 3)) for _ in range(3)]
        for method in bc.METHODS:
            _, rows, natural = bc.mixing(method, np.full(3, 1.0 / 3.0))
            raw = bc.joint(rows, natural, mus, sigmas, mus[0])
            leaves = [dg.Value(x) for x in mus], [dg.Value(x) for x in sigmas]
            graph = bc.joint(rows, natural, *leaves, leaves[0][0])
            for r, g in zip(raw, graph):
                assert type(r) is np.ndarray and isinstance(g, dg.Value)
                assert r.tobytes() == g.data.tobytes()

    def test_aggregate_full_family_supports_wb_only(self):
        # a full-covariance family goes to wb_full; `aggregate` takes diagonal ones
        fam = WeightedFamily.uniform([FullGaussian([0.0], [[2.0]])])
        assert wb_full(fam).cov[0, 0] == pytest.approx(2.0)
        for method in bc.METHODS:
            with pytest.raises(TypeError, match="wb_full"):
                bc.aggregate(fam, method)

    def test_empty_subset_table_gives_the_prior_shaped_like(self):
        for method in ("mopoe", "mwb"):
            _, rows, natural = bc.mixing(method, [])
            like = np.empty((2, 3), np.float32)
            mean, sigma = bc.joint(rows, natural, [], [], like)
            assert mean.dtype == sigma.dtype == np.float32
            assert np.array_equal(mean, np.zeros((2, 3))) and np.array_equal(sigma, np.ones((2, 3)))

    @pytest.mark.parametrize("method", bc.METHODS)
    def test_aggregate_floors_sigma_once(self, method):
        # two experts at the floor: the product's sigma falls below it
        fam = WeightedFamily.uniform([g1(0.0, 0.0), g1(1.0, 1e-6)])
        weights, mean, sigma = bc.aggregate(fam, method)
        assert weights.shape == (len(mean),) and mean.shape == sigma.shape == (len(mean), 1)
        assert sigma.min() == bc.SIGMA_FLOOR
