"""Property tests of the barycentric objective, beside the fixed-seed tests.

They need `hypothesis` (the `test` extra) and are skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from baryvae.barycenter import DIVERGENCES, barycenter_objective  # noqa: E402

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
