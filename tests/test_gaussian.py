import math

import numpy as np
import pytest

from baryvae.barycenter import barycenter_objective
from baryvae.errors import NumericError
from baryvae.gaussian import (
    SIGMA_FLOOR,
    DiagGaussian,
    FullGaussian,
    WeightedFamily,
    mixture_log_density,
)

from oracles import (
    OracleError,
    diag_log_density,
    objective_arrays,
    proposal_log_density,
    quad_kl_1d,
    random_diag_gaussian,
    random_spd,
    stacked_arrays,
    w2sq_1d_quantile,
    w2sq_full,
)


def g1(mean, sigma):
    return DiagGaussian([mean], [sigma])


def pair_kl(p, q):
    """KL(p || q), the objective's one-expert, one-row forward-KL case."""
    return float(barycenter_objective(*objective_arrays(p, [q]), "forward_kl")[0])


def pair_w2sq(p, q):
    """Squared W2 between p and q, the objective's one-expert, one-row case."""
    return float(barycenter_objective(*objective_arrays(p, [q]), "w2sq")[0])


def log_density(g, xs):
    """The program's mixture density of `g` at the rows of xs (n x d)."""
    return mixture_log_density(*stacked_arrays(g), np.atleast_2d(np.asarray(xs, dtype=np.float64)))


class TestTypes:
    def test_sigma_floor_applied(self):
        g = DiagGaussian([0.0], [0.0])
        assert g.sigma[0] == SIGMA_FLOOR

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian([0.0, 1.0], [1.0])

    @pytest.mark.parametrize(
        "mean,sigma,message",
        [([1.0], [-2.0], "nonnegative"), ([0.0, 1.0], [1.0, -1e-300], "nonnegative"),
         ([], [], "dimension")],
        ids=["negative", "tiny_negative", "empty"],
    )
    def test_negative_sigma_and_empty_rejected(self, mean, sigma, message):
        with pytest.raises(ValueError, match=message):
            DiagGaussian(mean, sigma)

    def test_full_gaussian_requires_spd(self):
        with pytest.raises(ValueError):
            FullGaussian([0.0, 0.0], np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_gaussian_rejects_numerically_singular_cov(self, d):
        # the smallest eigenvalue must exceed d * eps times the largest; both
        # stay above the absolute floor
        eps = np.finfo(np.float64).eps
        eigs = np.full(d, 1e6)
        eigs[0] = d * eps * 1e6
        with pytest.raises(ValueError, match="numerically singular"):
            FullGaussian(np.zeros(d), np.diag(eigs))
        eigs[0] = 2 * d * eps * 1e6
        assert np.array_equal(FullGaussian(np.zeros(d), np.diag(eigs)).cov, np.diag(eigs))

    def test_full_gaussian_one_dimension_is_never_numerically_singular(self):
        assert FullGaussian([0.0], [[1e-12]]).cov[0, 0] == 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_full_gaussian_nonfinite_cov_raises_numeric_error(self, bad):
        with pytest.raises(NumericError):
            FullGaussian([0.0, 0.0], [[1.0, bad], [bad, 1.0]])

    def test_full_gaussian_symmetrizes_cov(self):
        # a unit diagonal would symmetrize to the singular [[1, 1], [1, 1]]
        g = FullGaussian([0.0, 0.0], [[2.0, 2.0], [0.0, 2.0]])
        assert np.array_equal(g.cov, g.cov.T)
        assert g.cov[0, 1] == 1.0

    @pytest.mark.parametrize(
        "cov", [np.eye(3)[:2], np.ones((1, 1, 1)), np.zeros((0, 0))],
        ids=["nonsquare", "three_d", "empty"],
    )
    def test_full_gaussian_rejects_nonsquare_cov(self, cov):
        with pytest.raises(ValueError, match="expected a square matrix, got shape"):
            FullGaussian(np.zeros(len(cov)), cov)

    def test_full_gaussian_rejects_matrix_mean(self):
        with pytest.raises(ValueError, match="mean must be a vector"):
            FullGaussian([[0.0], [1.0]], np.eye(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_full_gaussian_finite_cov_overflowing_when_symmetrized(self):
        with pytest.raises(ValueError, match="overflows when symmetrized"):
            FullGaussian([0.0, 0.0], [[1.0, 1.7e308], [1.7e308, 1.0]])

    def test_mixture_weights_validated(self):
        comps = (g1(0, 1), g1(1, 1))
        with pytest.raises(ValueError):
            WeightedFamily(comps, [0.5, 0.6])
        with pytest.raises(ValueError):
            WeightedFamily(comps, [-0.5, 1.5])
        with pytest.raises(ValueError):
            WeightedFamily(comps, [math.nan, math.nan])


class TestKl:
    def test_identical_is_zero(self):
        assert pair_kl(g1(0, 1), g1(0, 1)) == 0.0

    def test_mean_shift_quadrature_oracle(self):
        # closed form gives 2.0 for N(2,1) vs N(0,1); verify by quadrature
        val = pair_kl(g1(2, 1), g1(0, 1))
        assert val == pytest.approx(2.0, rel=1e-12)
        assert val == pytest.approx(quad_kl_1d(g1(2, 1), g1(0, 1)), rel=1e-6)

    def test_sigma_scale_quadrature_oracle(self):
        val = pair_kl(g1(0, 2), g1(0, 1))
        assert val == pytest.approx(math.log(0.5) + 2.0 - 0.5, rel=1e-12)
        assert val == pytest.approx(quad_kl_1d(g1(0, 2), g1(0, 1)), rel=1e-6)

    def test_nonnegative_and_asymmetric(self):
        rng = np.random.default_rng(21)
        asymmetric_seen = False
        for _ in range(200):
            p = random_diag_gaussian(rng, int(rng.integers(1, 5)))
            q = random_diag_gaussian(rng, p.dim)
            forward = pair_kl(p, q)
            backward = pair_kl(q, p)
            assert forward >= 0.0 and backward >= 0.0
            if abs(forward - backward) > 1e-6:
                asymmetric_seen = True
        assert asymmetric_seen

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pair_kl(g1(0, 1), DiagGaussian([0.0, 0.0], [1.0, 1.0]))


class TestW2Diag:
    def test_identical_is_zero(self):
        assert pair_w2sq(g1(0, 1), g1(0, 1)) == 0.0

    def test_mean_gap(self):
        assert pair_w2sq(g1(2, 1), g1(0, 1)) == 4.0

    def test_sigma_gap(self):
        assert pair_w2sq(g1(0, 1), g1(0, 3)) == 4.0

    def test_metric_axioms(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            p, q, r = (random_diag_gaussian(rng, d) for _ in range(3))
            dpq = math.sqrt(pair_w2sq(p, q))
            dqp = math.sqrt(pair_w2sq(q, p))
            assert dpq == dqp
            assert dpq >= 0.0
            assert math.sqrt(pair_w2sq(p, p)) == 0.0
            assert dpq <= math.sqrt(pair_w2sq(p, r)) + math.sqrt(pair_w2sq(r, q)) + 1e-9


class TestW2Full:
    def test_identical_is_zero(self):
        p = FullGaussian([0.0, 0.0], np.diag([1.0, 2.0]))
        assert w2sq_full(p, p) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_diagonal_case(self):
        p = FullGaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        q = FullGaussian([0.0, 0.0], np.diag([4.0, 1.0]))
        # commuting case reduces to (1-2)^2 + (2-1)^2 = 2
        assert w2sq_full(p, q) == pytest.approx(2.0, abs=1e-10)

    def test_commuting_pair_matches_diagonal_reduction(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            q_mat = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            wa = rng.uniform(0.3, 3.0, dim)
            wb = rng.uniform(0.3, 3.0, dim)
            mu_a, mu_b = rng.standard_normal(dim), rng.standard_normal(dim)
            a = FullGaussian(mu_a, (q_mat * wa) @ q_mat.T)
            b = FullGaussian(mu_b, (q_mat * wb) @ q_mat.T)
            # shared eigenbasis: distance separates along the eigenvalue pairs
            expected = float(np.sum((mu_a - mu_b) ** 2))
            expected += float(np.sum((np.sqrt(wa) - np.sqrt(wb)) ** 2))
            assert w2sq_full(a, b) == pytest.approx(expected, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = FullGaussian(rng.standard_normal(dim), random_spd(rng, dim))
            b = FullGaussian(rng.standard_normal(dim), random_spd(rng, dim))
            assert abs(w2sq_full(a, b) - w2sq_full(b, a)) <= 1e-8

    def test_embeds_diagonal(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            p = random_diag_gaussian(rng, d)
            q = random_diag_gaussian(rng, d)
            fp = FullGaussian(p.mean, np.diag(p.sigma**2))
            fq = FullGaussian(q.mean, np.diag(q.sigma**2))
            assert abs(w2sq_full(fp, fq) - pair_w2sq(p, q)) <= 1e-8


class TestQuantileOracle:
    def test_identical_gaussians(self):
        assert w2sq_1d_quantile(g1(0, 1), g1(0, 1)) <= 1e-8

    def test_matches_closed_form(self):
        val = w2sq_1d_quantile(g1(2, 1), g1(0, 1))
        assert val == pytest.approx(4.0, rel=1e-4)

    def test_random_gaussians_match_closed_form(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            p = random_diag_gaussian(rng, 1)
            q = random_diag_gaussian(rng, 1)
            assert w2sq_1d_quantile(p, q) == pytest.approx(pair_w2sq(p, q), rel=1e-4)

    def test_mixture_positive_and_symmetric(self):
        mix = WeightedFamily((g1(-2, 1), g1(2, 1)), [0.5, 0.5])
        a = w2sq_1d_quantile(mix, g1(0, 1))
        b = w2sq_1d_quantile(g1(0, 1), mix)
        assert a > 0.0 and math.isfinite(a)
        assert a == pytest.approx(b, abs=1e-8)

    def test_non_monotone_cdf_rejected(self):
        class BrokenDensity:
            def support(self):
                return (-5.0, 5.0)

            def pdf(self, xs):
                return np.where(np.abs(xs) < 1.0, -0.2, 0.4)

        with pytest.raises(OracleError):
            w2sq_1d_quantile(BrokenDensity(), g1(0, 1))


class TestDensity:
    def test_standard_normal_at_origin(self):
        assert log_density(g1(0, 1), [0.0])[0] == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_mixture_of_identical_components_idempotent(self):
        mix = WeightedFamily((g1(1, 2), g1(1, 2)), [0.5, 0.5])
        x = np.array([0.7])
        assert log_density(mix, x)[0] == pytest.approx(log_density(g1(1, 2), x)[0], abs=1e-12)

    def test_mixture_integrates_to_one(self):
        mix = WeightedFamily((g1(-3, 0.5), g1(2, 2)), [0.3, 0.7])
        xs = np.linspace(-30.0, 30.0, 200_001)
        mass = np.trapezoid(np.exp(log_density(mix, xs[:, None])), xs)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_underflow_is_stabilized(self):
        mix = WeightedFamily((g1(0, 1), g1(100, 1)), [0.5, 0.5])
        val = log_density(mix, [-60.0])[0]
        assert math.isfinite(val)


class TestMixtureLogDensity:
    """Dual route: the shared log-sum-exp against the formulas it replaced."""

    @staticmethod
    def family(d, k, zero_weight, seed):
        rng = np.random.default_rng(seed)
        comps = tuple(random_diag_gaussian(rng, d) for _ in range(k))
        weights = rng.dirichlet(np.ones(k))
        if zero_weight:
            weights[k // 2] = 0.0
            weights /= weights.sum()
        xs = rng.normal(0.0, 4.0, (64, d))
        return WeightedFamily(comps, weights), xs

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize(
        "k,zero_weight", [(1, False), (2, False), (5, False), (32, False), (2, True), (32, True)]
    )
    def test_bit_identical_to_reference_formulas(self, d, k, zero_weight):
        mix, xs = self.family(d, k, zero_weight, seed=100 * d + k)
        means = np.stack([c.mean for c in mix.members])
        sigmas = np.stack([c.sigma for c in mix.members])
        want = proposal_log_density(mix.weights, means, sigmas, xs)
        assert np.array_equal(mixture_log_density(mix.weights, means, sigmas, xs), want)
        for c in mix.members:
            assert np.array_equal(log_density(c, xs), diag_log_density(c, xs))


class TestShapeBehaviour:
    """Density shape properties of product vs mixture aggregation."""

    def test_product_mode_between_expert_means(self):
        # precision-weighted product of well-separated experts
        a, b = g1(-6.0, 0.5), g1(6.0, 0.8)
        prec = 1 / 0.5**2 + 1 / 0.8**2
        mean = ((-6.0) / 0.5**2 + 6.0 / 0.8**2) / prec
        product = g1(mean, math.sqrt(1 / prec))
        assert -6.0 < product.mean[0] < 6.0
        # the single mode squeezes out the experts' own modes entirely
        assert log_density(product, a.mean)[0] < log_density(a, a.mean)[0] - 10.0
        assert log_density(product, b.mean)[0] < log_density(b, b.mean)[0] - 10.0

    def test_mixture_keeps_mass_at_every_expert(self):
        a, b = g1(-3.0, 0.7), g1(3.0, 1.2)
        lam = np.array([0.4, 0.6])
        mix = WeightedFamily((a, b), lam)
        for lam_m, g in zip(lam, (a, b)):
            mix_at_mean = math.exp(log_density(mix, g.mean)[0])
            peak = math.exp(log_density(g, g.mean)[0])
            assert mix_at_mean >= lam_m * peak
