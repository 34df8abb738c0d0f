"""Property tests of the barycentric objective and the aggregators, and
fuzzes of the `aggregate`, `train` and `eval` input boundaries and the IDX
loader, beside the fixed-seed tests.

They need `hypothesis` (the `test` extra) and are skipped without it.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from baryvae import cli  # noqa: E402
from baryvae import mmvae as mm  # noqa: E402
from baryvae.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, load_idx  # noqa: E402
from baryvae.barycenter import (  # noqa: E402
    DIVERGENCES,
    METHODS,
    SubsetIndex,
    aggregate,
    barycenter_objective,
    WB_FULL_TOL,
    poe,
    wb_diag,
    wb_full,
)
from baryvae.errors import IdxFormatError, NumericError  # noqa: E402
from baryvae.gaussian import DiagGaussian, FullGaussian, WeightedFamily  # noqa: E402

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


# ---------------------------------------------------------------------------
# the aggregators: one kernel, read through the paper's barycentric claims
# ---------------------------------------------------------------------------


@st.composite
def diag_families(draw, max_members=5, max_dim=6, identical=False):
    """A diagonal WeightedFamily with sigmas in [0.3, 2.5], far above the floor."""
    m = draw(st.integers(1, max_members))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means, sigmas = rng.uniform(-3.0, 3.0, (m, d)), rng.uniform(0.3, 2.5, (m, d))
    if identical:
        means, sigmas = means[:1].repeat(m, axis=0), sigmas[:1].repeat(m, axis=0)
    weights = rng.uniform(0.05, 1.0, m)
    return WeightedFamily(tuple(map(DiagGaussian, means, sigmas)), weights / weights.sum())


def members_of(family, mask):
    return [g for i, g in enumerate(family.members) if mask >> i & 1]


@settings(max_examples=100, deadline=None)
@given(diag_families(), st.sampled_from(["mopoe", "mwb"]))
def test_powerset_component_is_the_subset_aggregate(family, method):
    # bit for bit: both routes fold the same coefficients in the same order
    weights, mean, sigma = aggregate(family, method)
    single = poe if method == "mopoe" else wb_diag
    assert np.array_equal(mean[0], np.zeros(family.dim))
    assert np.array_equal(sigma[0], np.ones(family.dim))
    for mask in range(1, len(weights)):
        got = single(WeightedFamily.uniform(members_of(family, mask)))
        assert mean[mask].tobytes() == got.mean.tobytes()
        assert sigma[mask].tobytes() == got.sigma.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(METHODS),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_array_route_equals_one_row_calls(method, m, n, d, seed):
    # bit for bit: every step is elementwise, so a row does not see the others;
    # the sigmas stay above the floor, which only the per-family route applies
    config = mm.ModelConfig(
        num_modalities=m, input_dims=(1,) * m, latent_dim=d, hidden=(1,), aggregation=method
    )
    vae = mm.MultimodalVae(config)
    rng = np.random.default_rng(seed)
    encoded = [(rng.uniform(-3.0, 3.0, (n, d)), rng.uniform(0.3, 2.5, (n, d))) for _ in range(m)]
    for mask in range(1, 1 << m):
        subset = SubsetIndex(mask, m)
        weights, mus, sigmas = mm.aggregate_arrays(vae, encoded, subset)
        for i in range(n):
            family = WeightedFamily.uniform(
                [DiagGaussian(encoded[j][0][i], encoded[j][1][i]) for j in subset.members()]
            )
            one = aggregate(family, method)
            assert [a.tobytes() for a in one] == [
                a.tobytes() for a in (weights, mus[:, i], sigmas[:, i])
            ]


# Reordering the M <= 5 experts reorders each fold of M terms: a sum of
# positive terms (sigma, precision) moves by at most about (M - 1) eps of its
# value, and a mean, a convex combination of the member means whose terms may
# cancel, by at most about 2 (M - 1) eps of the largest member mean.
AGGREGATOR_PERMUTATION_RTOL = 1e-14


@settings(max_examples=100, deadline=None)
@given(diag_families(), st.sampled_from(METHODS), st.randoms(use_true_random=False))
def test_expert_permutation_relabels_components(family, method, random):
    order = list(range(family.size))
    random.shuffle(order)
    permuted = WeightedFamily(tuple(family.members[i] for i in order), family.weights[order])
    base, moved = aggregate(family, method), aggregate(permuted, method)
    if method == "moe":
        base = tuple(a[order] for a in base)
    elif method in ("mopoe", "mwb"):
        # permuted expert j is expert order[j], so permuted mask S is the old
        # mask over {order[j] : j in S}
        old = [sum(1 << order[j] for j in range(family.size) if mask >> j & 1)
               for mask in range(1 << family.size)]
        base = tuple(a[old] for a in base)
    assert np.array_equal(moved[0], base[0])
    scale = max(float(np.max(np.abs(g.mean))) for g in family.members)
    np.testing.assert_allclose(
        moved[1], base[1], rtol=0.0, atol=AGGREGATOR_PERMUTATION_RTOL * scale
    )
    np.testing.assert_allclose(moved[2], base[2], rtol=AGGREGATOR_PERMUTATION_RTOL, atol=0.0)


# M <= 5 identical members: each result folds M equal terms whose
# coefficients sum to 1 within rounding, so it lands within about 2 M eps of
# the closed form, itself rounded once.
IDENTICAL_MEMBERS_RTOL = 1e-14


@settings(max_examples=100, deadline=None)
@given(diag_families(identical=True))
def test_identical_members(family):
    member, m = family.members[0], family.size
    out = wb_diag(family)
    np.testing.assert_allclose(out.mean, member.mean, rtol=IDENTICAL_MEMBERS_RTOL, atol=0.0)
    np.testing.assert_allclose(out.sigma, member.sigma, rtol=IDENTICAL_MEMBERS_RTOL, atol=0.0)
    out = poe(family)
    np.testing.assert_allclose(out.mean, member.mean, rtol=IDENTICAL_MEMBERS_RTOL, atol=0.0)
    np.testing.assert_allclose(
        out.sigma, member.sigma / math.sqrt(m), rtol=IDENTICAL_MEMBERS_RTOL, atol=0.0
    )


# The sigma range of the next test, fixed before it was first run: four
# decades either side of 1, so the covariances span condition numbers to 1e8.
DIAGONAL_SIGMA_RANGE = (1e-2, 1e2)


@st.composite
def diagonal_pairs(draw, max_members=5, max_dim=6):
    """One family twice: as DiagGaussians, and as FullGaussians of the same
    means whose covariances are diag(sigma^2)."""
    m = draw(st.integers(1, max_members))
    d = draw(st.integers(1, max_dim))
    means = draw(st.lists(st.floats(-10.0, 10.0), min_size=m * d, max_size=m * d))
    sigmas = draw(st.lists(st.floats(*DIAGONAL_SIGMA_RANGE), min_size=m * d, max_size=m * d))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    means, sigmas = np.reshape(means, (m, d)), np.reshape(sigmas, (m, d))
    weights = weights / weights.sum()
    diag = WeightedFamily(tuple(map(DiagGaussian, means, sigmas)), weights)
    full = [FullGaussian(mean, np.diag(sigma**2)) for mean, sigma in zip(means, sigmas)]
    return diag, WeightedFamily(tuple(full), weights)


@settings(max_examples=200, deadline=None)
@given(diagonal_pairs())
def test_wb_full_of_a_diagonal_family_is_wb_diag(pair):
    # Diagonal covariances commute, so the fixed point of
    # S = sum_m lam_m (S^1/2 S_m S^1/2)^1/2 is diag((sum_m lam_m sigma_m)^2),
    # wb_diag's sigma squared (Agueh & Carlier 2011). wb_full returns a point
    # within WB_FULL_TOL of its fixed point on its stopping rule's scale,
    # 1 + ||S||_F, so every covariance entry is held to WB_FULL_TOL times
    # that scale: the diagonal to wb_diag's sigma^2, the rest to 0. Both
    # routes fold the member means by the same weights, so the mean is held
    # to WB_FULL_TOL times 1 + its largest entry.
    diag, full = pair
    expected, out = wb_diag(diag), wb_full(full)
    target = np.diag(expected.sigma**2)
    cov_atol = WB_FULL_TOL * (1.0 + np.linalg.norm(target))
    np.testing.assert_allclose(out.cov, target, rtol=0.0, atol=cov_atol)
    mean_atol = WB_FULL_TOL * (1.0 + np.max(np.abs(expected.mean)))
    np.testing.assert_allclose(out.mean, expected.mean, rtol=0.0, atol=mean_atol)


# ---------------------------------------------------------------------------
# fuzzing the `aggregate` boundary with malformed posterior documents
# ---------------------------------------------------------------------------

NOT_NUMBERS = st.one_of(st.text(max_size=4), st.booleans(), st.just({}), st.just([]))
BAD_NUMBERS = st.one_of(
    NOT_NUMBERS,
    st.none(),  # numpy reads null as NaN
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(309, 400).map(lambda k: 10**k),  # beyond the float range
    st.integers(309, 400).map(lambda k: -(10**k)),
)
# --weights values that never parse as a usable weight list
BAD_FLAG_WEIGHTS = ["", "x", "0.5,,0.5", "1;0", "0.5 0.5", "nan", "inf", "-1", "2"]


def number_paths(value, path=()):
    """The paths to every number in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [p for key, item in items for p in number_paths(item, (*path, key))]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def member_of_kind(rng, d, full):
    mean = rng.uniform(-5.0, 5.0, d).tolist()
    if full:
        a = rng.uniform(-1.0, 1.0, (d, d))
        return {"mean": mean, "cov": (a @ a.T + np.eye(d)).tolist()}
    return {"mean": mean, "sigma": rng.uniform(0.1, 3.0, d).tolist()}


@st.composite
def malformed_documents(draw):
    """(document, method, extra argv) that `aggregate` must reject.

    A valid document is drawn, then broken in one of several ways, each of
    which no valid document shares.
    """
    m, d, full = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    posteriors = [member_of_kind(rng, d, full) for _ in range(m)]
    doc = {"posteriors": posteriors}
    method = "wb" if full else draw(st.sampled_from(METHODS))
    if method in ("moe", "wb") and draw(st.booleans()):
        w = rng.uniform(0.5, 1.5, m)
        doc["weights"] = (w / w.sum()).tolist()
    spread = "cov" if full else "sigma"
    fields = [("posteriors", i, key) for i in range(m) for key in ("mean", spread)]
    fields += [("weights",)] * ("weights" in doc)
    argv = []
    how = draw(st.sampled_from(
        ["number", "field", "nest", "lengthen", "dims", "mixed", "negative", "weights",
         "flag", "structure"]
    ))
    if how == "number":  # one number becomes text, a boolean, null, NaN, Inf or huge
        *parent, key = draw(st.sampled_from(number_paths(doc)))
        at(doc, parent)[key] = draw(BAD_NUMBERS)
    elif how == "field":  # a whole field becomes a non-number
        *parent, key = draw(st.sampled_from(fields))
        at(doc, parent)[key] = draw(NOT_NUMBERS)
    elif how == "nest":  # one more level of lists
        *parent, key = draw(st.sampled_from(fields))
        at(doc, parent)[key] = [at(doc, parent)[key]]
    elif how == "lengthen":  # a vector, or a covariance row, one entry longer
        path = draw(st.sampled_from(fields))
        target = at(doc, path)
        (target[draw(st.integers(0, d - 1))] if path[-1] == "cov" else target).append(1.0)
    elif how == "dims":  # one more member, of another dimension
        posteriors.insert(draw(st.integers(0, m)), member_of_kind(rng, d + 1, full))
    elif how == "mixed":  # one member of the other kind
        posteriors.insert(draw(st.integers(0, m)), member_of_kind(rng, d, not full))
    elif how == "negative":  # a negative sigma, or a negative definite covariance
        member = posteriors[draw(st.integers(0, m - 1))]
        if full:
            member["cov"] = (-np.asarray(member["cov"])).tolist()
        else:
            member["sigma"][draw(st.integers(0, d - 1))] = -draw(st.floats(0.5, 3.0))
    elif how == "weights":  # weights that are negative, off the simplex or unused
        w = np.full(m, 1.0 / m)
        bad = draw(st.sampled_from(["negative", "double", "longer", "unused"]))
        if bad == "negative":
            w[0] = -0.25
        elif bad == "double":
            w = 2.0 * w
        elif bad == "longer":
            w = np.append(w, 0.0)
        else:
            method = draw(st.sampled_from(["poe", "mopoe", "mwb"]))
        doc["weights"] = w.tolist()
    elif how == "flag":
        argv = ["--weights=" + draw(st.sampled_from(BAD_FLAG_WEIGHTS))]
        if draw(st.booleans()):
            # well-formed weights for a method that does not use them
            argv = ["--weights=" + ",".join(["1"] + ["0"] * (m - 1))]
            method = draw(st.sampled_from(["poe", "mopoe", "mwb"]))
    else:  # the document's structure: not an object, no members, bad keys
        broken = draw(st.sampled_from(
            ["list", "text", "number", "empty", "members_object", "member_list",
             "no_mean", "no_spread", "both_spreads", "unknown_key", "unknown_member_key"]
        ))
        member = posteriors[0]
        if broken == "list":
            doc = [doc]
        elif broken == "text":
            doc = "posteriors"
        elif broken == "number":
            doc = 1.0
        elif broken == "empty":
            doc["posteriors"] = []
        elif broken == "members_object":
            doc["posteriors"] = member
        elif broken == "member_list":
            posteriors[0] = list(member.values())
        elif broken == "no_mean":
            del member["mean"]
        elif broken == "no_spread":
            del member[spread]
        elif broken == "both_spreads":
            member.update(member_of_kind(rng, d, not full))
        elif broken == "unknown_key":
            doc["extra"] = 1
        else:
            member["extra"] = 1
    return doc, method, argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(case=malformed_documents())
def test_malformed_aggregate_documents_exit_2_with_one_error_line(fuzz_dir, case):
    # each is rejected before a kernel runs; exit 3 is for a finite input
    # whose result overflows, which none of these reaches
    doc, method, argv = case
    inp, out = fuzz_dir / "in.json", fuzz_dir / "out.json"
    inp.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["aggregate", "--input", str(inp), "--output", str(out), "--method", method, *argv]
        )
    text = err.getvalue()
    assert code == cli.EXIT_INPUT, text
    assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzing the IDX loader with drawn headers over short bodies
# ---------------------------------------------------------------------------

U32 = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))


@st.composite
def idx_files(draw):
    """(image file bytes, label file bytes): a drawn 16-byte image header
    and 8-byte label header, each over a body of at most 64 bytes."""
    image_magic = draw(st.one_of(st.just(IDX_IMAGE_MAGIC), U32))
    label_magic = draw(st.one_of(st.just(IDX_LABEL_MAGIC), U32))
    n, rows, cols, labels = (draw(U32) for _ in range(4))
    images = struct.pack(">IIII", image_magic, n, rows, cols) + draw(st.binary(max_size=64))
    return images, struct.pack(">II", label_magic, labels) + draw(st.binary(max_size=64))


@settings(max_examples=400, deadline=None)
@given(files=idx_files())
# no images of 2^64 - 2^33 + 1 pixels each: a width numpy cannot reshape to
@example(
    files=(
        struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 2**32 - 1, 2**32 - 1),
        struct.pack(">II", IDX_LABEL_MAGIC, 0),
    )
)
def test_drawn_idx_headers_load_or_raise_idx_format_error(fuzz_dir, files):
    images, labels = fuzz_dir / "images.idx", fuzz_dir / "labels.idx"
    images.write_bytes(files[0])
    labels.write_bytes(files[1])
    try:
        dataset = load_idx(str(images), str(labels))
    except IdxFormatError:
        return
    n, rows, cols = struct.unpack_from(">III", files[0], 4)
    assert dataset.modalities[0].shape == (n, rows * cols)


# ---------------------------------------------------------------------------
# fuzzing the `train` and `eval` boundaries with mutated config and
# checkpoint documents
# ---------------------------------------------------------------------------

FUZZ_CONFIG = {
    "model": {"latent_dim": 2, "hidden": [4], "aggregation": "wb", "epochs": 1, "seed": 0},
    "data": {"toy": {"num_modalities": 2, "examples_per_class": 2, "seed": 0}},
    "split": {"train_fraction": 0.5, "seed": 0},
    "eval": {
        "importance_samples": 2,
        "probe_samples": 4,
        "coherence_samples": 2,
        "loglik_examples": 2,
    },
}
# JSON values a field may be replaced with. No drawn integer sizes a real
# allocation: each is at most 64, or beyond the signed 64-bit range, where
# the document is rejected before anything is allocated.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-2, 64),
    st.integers(19, 400).map(lambda k: 10**k),
    st.integers(19, 400).map(lambda k: -(10**k)),
    st.floats(),
    st.lists(st.integers(-2, 64), max_size=3),
    st.just({}),
)


def mutation_paths(value, path=()):
    """The paths to every part of a JSON document, the root included; of a
    list longer than 3, only its first and last items."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
        if len(items) > 3:
            items = [items[0], items[-1]]
    else:
        items = []
    return [path] + [p for key, item in items for p in mutation_paths(item, (*path, key))]


@st.composite
def mutated(draw, doc, paths):
    """A deep copy of `doc` with one part replaced by a drawn JSON value,
    deleted, or given an unknown key."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(paths))
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    parent = at(doc, path[:-1])
    if how == "add" and isinstance(at(doc, path), dict):
        at(doc, path)["extra"] = draw(JSON_VALUES)
    elif how == "delete" and path and isinstance(parent, dict):
        del parent[path[-1]]
    elif path[-2:] == ("model", "epochs"):
        # epochs may take any size, and train runs every one of them
        parent["epochs"] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, int) or v <= 64))
    elif path:
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        doc = draw(JSON_VALUES)
    return doc


def run_cli(argv):
    """(exit code, stderr) of an in-process `baryvae` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_one_error_line(code, text, codes):
    """Exit 0 with nothing on stderr, or one of `codes` with one error line.
    Exit 3 is a numeric failure: drawn numbers, such as a learning rate of
    1e300, may make a valid document's training or evaluation diverge."""
    if code == cli.EXIT_OK:
        assert text == "", text
    else:
        assert code in (*codes, cli.EXIT_NUMERIC), (code, text)
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(doc=mutated(FUZZ_CONFIG, mutation_paths(FUZZ_CONFIG)))
def test_mutated_config_documents_train_or_exit_2_with_one_error_line(fuzz_dir, doc):
    cfg, out = fuzz_dir / "config.json", fuzz_dir / "train"
    cfg.write_text(json.dumps(doc))
    code, text = run_cli(["train", "--config", str(cfg), "--out", str(out)])
    assert_one_error_line(code, text, [cli.EXIT_INPUT])


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A checkpoint document trained on FUZZ_CONFIG."""
    run = tmp_path_factory.mktemp("fuzz_checkpoint")
    (run / "config.json").write_text(json.dumps(FUZZ_CONFIG))
    assert run_cli(["train", "--config", str(run / "config.json"), "--out", str(run)]) == (0, "")
    return json.loads((run / "checkpoint.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_checkpoints_evaluate_or_exit_4_with_one_error_line(
    fuzz_dir, fuzz_checkpoint, data
):
    doc = data.draw(mutated(fuzz_checkpoint, mutation_paths(fuzz_checkpoint)))
    checkpoint, out = fuzz_dir / "checkpoint.json", fuzz_dir / "eval"
    checkpoint.write_text(json.dumps(doc))
    code, text = run_cli(["eval", "--checkpoint", str(checkpoint), "--out", str(out)])
    assert_one_error_line(code, text, [cli.EXIT_FORMAT])
