"""Property tests of the barycentric objective, beside the fixed-seed tests.

They need `hypothesis` (the `test` extra) and are skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from baryvae.barycenter import DIVERGENCES, barycenter_objective, wb_full  # noqa: E402
from baryvae.errors import NumericError  # noqa: E402
from baryvae.gaussian import FullGaussian, WeightedFamily  # noqa: E402

# Reordering M <= 6 nonnegative terms moves their sum by at most about
# (M - 1) * 2.2e-16 of its value.
PERMUTATION_RTOL = 1e-14


@st.composite
def problems(draw, max_experts=6, max_rows=5, max_dim=8):
    """(weights M, means and sigmas M x n x d, q_mean and q_sigma n x d)."""
    m = draw(st.integers(1, max_experts))
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.05, 1.0, m)
    weights /= weights.sum()
    return (
        weights,
        rng.uniform(-3.0, 3.0, (m, n, d)),
        rng.uniform(0.3, 2.5, (m, n, d)),
        rng.uniform(-3.0, 3.0, (n, d)),
        rng.uniform(0.3, 2.5, (n, d)),
    )


divergences = st.sampled_from(DIVERGENCES)


@settings(max_examples=100, deadline=None)
@given(problems(), divergences)
def test_rows_equal_one_row_calls(problem, divergence):
    weights, means, sigmas, q_mean, q_sigma = problem
    rows = barycenter_objective(weights, means, sigmas, q_mean, q_sigma, divergence)
    for i in range(q_mean.shape[0]):
        one = barycenter_objective(
            weights, means[:, i : i + 1], sigmas[:, i : i + 1],
            q_mean[i : i + 1], q_sigma[i : i + 1], divergence,
        )
        assert one.tobytes() == rows[i : i + 1].tobytes()


@settings(max_examples=100, deadline=None)
@given(problems(), divergences, st.randoms(use_true_random=False))
def test_expert_permutation(problem, divergence, random):
    weights, means, sigmas, q_mean, q_sigma = problem
    order = list(range(len(weights)))
    random.shuffle(order)
    base = barycenter_objective(weights, means, sigmas, q_mean, q_sigma, divergence)
    permuted = barycenter_objective(
        weights[order], means[order], sigmas[order], q_mean, q_sigma, divergence
    )
    np.testing.assert_allclose(permuted, base, rtol=PERMUTATION_RTOL, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(problems(max_experts=1), divergences)
def test_zero_at_a_one_member_family(problem, divergence):
    weights, means, sigmas, _, _ = problem
    got = barycenter_objective(weights, means, sigmas, means[0], sigmas[0], divergence)
    assert np.array_equal(got, np.zeros(means.shape[1]))


@st.composite
def full_families(draw, max_members=4, max_dim=4):
    """(means M x d, SPD covariances M x d x d with eigenvalues >= 0.1, weights M)."""
    m = draw(st.integers(1, max_members))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, d, d))
    weights = rng.uniform(0.05, 1.0, m)
    weights /= weights.sum()
    return rng.standard_normal((m, d)), a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d), weights


def scaled_wb_full(means, covs, weights, power, **kwargs):
    """wb_full of the family with every covariance times 4**power, then
    divided by 4**power: its covariance, or the residual it fails with."""
    scale = math.ldexp(1.0, 2 * power)  # 4**power, exactly
    family = WeightedFamily(
        [FullGaussian(mu, c * scale) for mu, c in zip(means, covs)], weights
    )
    try:
        return wb_full(family, **kwargs).cov / scale
    except NumericError as err:
        return err.details["residual"] / scale


@settings(max_examples=60, deadline=None)
@given(full_families(), st.integers(-100, 100), st.integers(0, 20))
def test_wb_full_iterates_scale_by_powers_of_four_exactly(family, k, max_iter):
    # a tol this small stops only at an exact fixed point, so both scales
    # take the same steps; the default rule's 1 + ||S|| is not homogeneous
    means, covs, weights = family
    # start high enough that both families clear the eigenvalue floor
    base, scaled = (
        scaled_wb_full(means, covs, weights, power, tol=1e-300, max_iter=max_iter)
        for power in (max(0, -k), max(0, -k) + k)
    )
    assert np.asarray(scaled).tobytes() == np.asarray(base).tobytes()


@settings(max_examples=60, deadline=None)
@given(full_families(max_members=1), st.integers(2, 4), st.integers(-100, 100))
def test_wb_full_of_identical_members_scales_by_powers_of_four_exactly(family, m, k):
    means, covs, _ = family
    means, covs = np.repeat(means, m, axis=0), np.repeat(covs, m, axis=0)
    weights = np.full(m, 1.0 / m)
    base, scaled = (
        scaled_wb_full(means, covs, weights, power) for power in (max(0, -k), max(0, -k) + k)
    )
    assert scaled.tobytes() == base.tobytes()
