import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import baryvae
from baryvae import barycenter as bc
from baryvae import cli, evaluation
from baryvae.cli import main

SRC_DIR = os.path.dirname(os.path.dirname(baryvae.__file__))

TOY_CONFIG = {
    "model": {
        "latent_dim": 4,
        "hidden": [16],
        "aggregation": "wb",
        "beta": 1.0,
        "epochs": 2,
        "batch_size": 16,
        "seed": 0,
    },
    "data": {"toy": {"num_modalities": 2, "examples_per_class": 8, "seed": 3}},
    "split": {"train_fraction": 0.75, "seed": 1},
    "eval": {
        "importance_samples": 8,
        "probe_samples": 60,
        "coherence_samples": 12,
        "loglik_examples": 4,
    },
}


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def run(*argv):
    return main(list(argv))


class TestAggregateCommand:
    def posterior_file(self, tmp_path, doc):
        path = tmp_path / "input.json"
        write_json(path, doc)
        return str(path)

    def test_wb_matches_averages(self, tmp_path):
        inp = self.posterior_file(
            tmp_path,
            {
                "posteriors": [
                    {"mean": [0.0], "sigma": [1.0]},
                    {"mean": [2.0], "sigma": [3.0]},
                ]
            },
        )
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "wb"
        assert doc["mean"] == [1.0] and doc["sigma"] == [2.0]
        assert out.read_text().endswith("\n")

    def test_weights_flag(self, tmp_path):
        inp = self.posterior_file(
            tmp_path,
            {
                "posteriors": [
                    {"mean": [0.0], "sigma": [1.0]},
                    {"mean": [4.0], "sigma": [5.0]},
                ]
            },
        )
        out = tmp_path / "out.json"
        code = run(
            "aggregate",
            "--input", inp,
            "--output", str(out),
            "--method", "wb",
            "--weights", "0.25,0.75",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mean"] == [3.0] and doc["sigma"] == [4.0]

    def test_mwb_mixture_component_count(self, tmp_path):
        inp = self.posterior_file(
            tmp_path,
            {
                "posteriors": [
                    {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
                    {"mean": [1.0, 1.0], "sigma": [2.0, 2.0]},
                ]
            },
        )
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "mwb") == 0
        doc = json.loads(out.read_text())
        assert len(doc["components"]) == 4
        assert doc["weights"] == [0.25, 0.25, 0.25, 0.25]

    def test_full_covariance_barycenter(self, tmp_path):
        inp = self.posterior_file(
            tmp_path,
            {
                "posteriors": [
                    {"mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.1, 1.0]]},
                    {"mean": [2.0, 0.0], "cov": [[2.0, -0.1], [-0.1, 1.5]]},
                ]
            },
        )
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
        doc = json.loads(out.read_text())
        assert doc["mean"] == [1.0, 0.0]
        cov = np.asarray(doc["cov"])
        assert cov.shape == (2, 2) and np.array_equal(cov, cov.T)

    def test_small_full_posteriors_get_the_diagonal_barycenter(self, tmp_path):
        # Posteriors on a 1e-5 scale, as sigma and as cov = diag(sigma^2)
        # documents: the diagonal wb barycenter is the closed form, and the
        # fixed point must reach it at this scale too, not stop at its
        # starting point, the mean of the member covariances (54% off).
        sigmas = [[2e-5, 2e-5], [3e-6, 1.2e-5], [3e-6, 1.8e-5], [1.3e-5, 1e-5]]
        documents = {
            "sigma": [{"mean": [0.0, 0.0], "sigma": s} for s in sigmas],
            "cov": [{"mean": [0.0, 0.0], "cov": np.diag(np.square(s)).tolist()} for s in sigmas],
        }
        results = {}
        for key, posteriors in documents.items():
            inp = self.posterior_file(tmp_path, {"posteriors": posteriors})
            out = tmp_path / f"{key}.json"
            assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
            results[key] = json.loads(out.read_text())[key]
        np.testing.assert_allclose(
            np.diag(results["cov"]), np.square(results["sigma"]), rtol=1e-9, atol=0.0
        )

    @pytest.mark.parametrize("cov", [[[2.0, 0.3], [0.3, 0.7]], [[8e307]]])
    def test_one_full_member_is_its_own_barycenter(self, tmp_path, cov):
        mean = [0.5] * len(cov)
        inp = self.posterior_file(tmp_path, {"posteriors": [{"mean": mean, "cov": cov}]})
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
        assert json.loads(out.read_text()) == {"method": "wb", "mean": mean, "cov": cov}

    def test_identical_huge_full_members_are_their_barycenter(self, tmp_path):
        # the products of the fixed-point iteration would overflow unscaled
        member = {"mean": [0.5], "cov": [[8e307]]}
        inp = self.posterior_file(tmp_path, {"posteriors": [member, member]})
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
        assert json.loads(out.read_text()) == {"method": "wb", **member}

    def test_huge_full_covariances_do_not_overflow(self, tmp_path):
        covs = ([[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]])
        members = [{"mean": [0.0, 0.0], "cov": (1e200 * np.array(c)).tolist()} for c in covs]
        inp = self.posterior_file(tmp_path, {"posteriors": members})
        out = tmp_path / "out.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 0
        # the barycenter of the unscaled pair: sqrt(3)/4 (1, 1; 1, 1) + (1, 0; 0, 1)
        expected = 1e200 * (math.sqrt(3.0) / 4.0 * np.ones((2, 2)) + np.eye(2))
        np.testing.assert_allclose(json.loads(out.read_text())["cov"], expected, rtol=1e-8)

    def test_full_covariance_rejects_other_methods(self, tmp_path, capsys):
        inp = self.posterior_file(
            tmp_path,
            {"posteriors": [{"mean": [0.0], "cov": [[1.0]]}]},
        )
        out = tmp_path / "o.json"
        for method in ("poe", "moe", "mopoe", "mwb"):
            assert run("aggregate", "--input", inp, "--output", str(out), "--method", method) == 2
            assert capsys.readouterr().err == (
                f"error: method {method!r} supports diagonal posteriors only; "
                "full-covariance inputs support 'wb'\n"
            )
        assert not out.exists()

    def test_malformed_file_exits_2_with_diagnostic(self, tmp_path, capsys):
        inp = self.posterior_file(tmp_path, {"posteriors": [{"mean": [0.0]}]})
        code = run("aggregate", "--input", inp, "--output", str(tmp_path / "o.json"), "--method", "wb")
        assert code == 2
        err = capsys.readouterr().err
        assert "posteriors[0]" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "posteriors,message",
        [
            ([{"mean": [1.0], "sigma": [-2.0]}], "nonnegative"),
            ([{"mean": [], "sigma": []}], "dimension"),
            ([{"mean": [0.0], "cov": [[1e308]]}], "overflows when symmetrized"),
            ([{"mean": [[0], [1]], "cov": [[1, 0], [0, 1]]}], "mean must be a vector"),
            (
                [{"mean": [[0.0]], "sigma": [[1.0]]}],
                "mean/sigma must be vectors, got shape (1, 1) vs (1, 1)",
            ),
            ([{"mean": [0.0, 1.0], "sigma": [1.0]}], "mean/sigma lengths differ: 2 vs 1"),
            (
                [{"mean": [0], "cov": [[1e300]]}, {"mean": [1], "cov": [[1e-300]]}],
                "covariance smallest eigenvalue 1.000e-300 is below the floor 1e-12",
            ),
        ],
        ids=[
            "negative_sigma",
            "empty",
            "cov_overflows_when_symmetrized",
            "matrix_mean",
            "matrix_mean_and_sigma",
            "unequal_lengths",
            "cov_eigenvalue_below_floor",
        ],
    )
    def test_invalid_posterior_exits_2(self, tmp_path, capsys, posteriors, message):
        # the last posterior is the invalid one
        inp = self.posterior_file(tmp_path, {"posteriors": posteriors})
        out = tmp_path / "o.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: posteriors[{len(posteriors) - 1}]: ")
        assert err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mopoe", "mwb"])
    def test_seventeen_experts_exit_2_for_powerset_methods(self, tmp_path, capsys, method):
        # 2^17 subsets; the table is refused before it is built
        inp = self.posterior_file(
            tmp_path, {"posteriors": [{"mean": [0.0], "sigma": [1.0]}] * 17}
        )
        out = tmp_path / "o.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", method) == 2
        assert capsys.readouterr().err == f"error: {method} supports at most 16 experts, got 17\n"
        assert not out.exists()

    def test_bad_weights_exit_2(self, tmp_path, capsys):
        # a fault of the family itself is its own, not the weights', under --weights too
        two = [{"mean": [0.0], "sigma": [1.0]}, {"mean": [1.0], "sigma": [1.0]}]
        cases = [
            (two, "0.9,0.9", "weights sum to 1.8, expected 1"),
            ([two[0], {"mean": [1.0, 2.0], "sigma": [1.0, 1.0]}], "0.5,0.5",
             "member dims differ: [1, 2]"),
            ([two[0], {"mean": [1.0], "cov": [[1.0]]}], "0.5,0.5",
             "members must be all diagonal or all full-covariance"),
        ]
        for posteriors, weights, message in cases:
            inp = self.posterior_file(tmp_path, {"posteriors": posteriors})
            code = run(
                "aggregate", "--input", inp, "--output", str(tmp_path / "o.json"),
                "--method", "wb", "--weights", weights,
            )
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("source", ["flag", "document"])
    @pytest.mark.parametrize("method", ["poe", "moe", "wb", "mopoe", "mwb"])
    def test_weights_only_for_methods_that_use_them(self, tmp_path, capsys, method, source):
        posteriors = [{"mean": [0.0], "sigma": [1.0]}, {"mean": [4.0], "sigma": [5.0]}]
        doc, argv = {"posteriors": posteriors}, []
        if source == "flag":
            argv = ["--weights", "0.3,0.7"]
        else:
            doc["weights"] = [0.3, 0.7]
        out = tmp_path / "o.json"
        inp = self.posterior_file(tmp_path, doc)
        code = run("aggregate", "--input", inp, "--output", str(out), "--method", method, *argv)
        if method in ("moe", "wb"):
            assert code == 0
            result = json.loads(out.read_text())
            if method == "moe":
                assert result["weights"] == [0.3, 0.7]
            else:
                assert result["mean"] == pytest.approx([2.8]) and result["sigma"] == [3.8]
            return
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "moe and wb" in err and method in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["mean", "sigma", "cov", "document_weights", "flag_weights"]
    )
    def test_nonfinite_input_exits_2(self, tmp_path, capsys, field, bad):
        kind = "cov" if field == "cov" else "sigma"
        spread = [[1.0, 0.0], [0.0, 1.0]] if kind == "cov" else [1.0, 1.0]
        posteriors = [{"mean": [0.0, 1.0], kind: spread}, {"mean": [1.0, 0.0], kind: spread}]
        doc = {"posteriors": posteriors}
        argv = []
        if field == "mean":
            posteriors[0]["mean"] = [bad, 1.0]
        elif field == "sigma":
            posteriors[0]["sigma"] = [1.0, bad]
        elif field == "cov":
            posteriors[1]["cov"] = [[1.0, bad], [bad, 1.0]]
        elif field == "document_weights":
            doc["weights"] = [bad, 0.5]
        else:
            argv = ["--weights", f"{bad},0.5"]
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        code = run("aggregate", "--input", inp, "--output", str(out), "--method", "wb", *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["mean", "sigma", "cov", "weights"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, field):
        # json reads 10**400 as an integer that no float holds
        kind = "cov" if field == "cov" else "sigma"
        spread = [[1.0, 0.0], [0.0, 1.0]] if kind == "cov" else [1.0, 1.0]
        posteriors = [{"mean": [0.0, 1.0], kind: spread}, {"mean": [1.0, 0.0], kind: spread}]
        doc = {"posteriors": posteriors}
        if field == "weights":
            doc["weights"] = [10**400, 0.5]
        elif field == "cov":
            posteriors[1]["cov"] = [[10**400, 0.0], [0.0, 1.0]]
        else:
            posteriors[0][field] = [1.0, 10**400]
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 2
        where = {"cov": "posteriors[1]: cov", "weights": "weights"}.get(
            field, f"posteriors[0]: {field}"
        )
        assert capsys.readouterr().err == (
            f"error: {where} must be finite, got a number beyond the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["1", True])
    @pytest.mark.parametrize("field", ["mean", "sigma", "cov", "weights", "weights_under_flag"])
    def test_text_or_bool_number_exits_2(self, tmp_path, capsys, field, bad):
        # numpy would read "1" and true as 1.0; the config parser rejects both too
        kind = "cov" if field == "cov" else "sigma"
        spread = [[1.0, 0.0], [0.0, 1.0]] if kind == "cov" else [1.0, 1.0]
        posteriors = [{"mean": [0.0, 1.0], kind: spread}, {"mean": [1.0, 0.0], kind: spread}]
        doc, argv = {"posteriors": posteriors}, []
        if field == "mean":
            posteriors[1]["mean"] = [0.0, bad]
        elif field == "sigma":
            posteriors[1]["sigma"] = [bad, 1.0]
        elif field == "cov":
            posteriors[1]["cov"] = [[bad, 0.0], [0.0, 1.0]]
        elif field == "weights":
            doc["weights"] = [bad, 0.0]
        else:  # the document's weights are checked though the flag overrides them
            doc["weights"], argv = bad, ["--weights", "0.3,0.7"]
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        code = run("aggregate", "--input", inp, "--output", str(out), "--method", "wb", *argv)
        assert code == 2
        where = f"posteriors[1]: {field}" if field in ("mean", "sigma", "cov") else "weights"
        assert capsys.readouterr().err == (
            f"error: {where} must hold JSON numbers only, got {json.dumps(bad)}\n"
        )
        assert not out.exists()

    def test_non_numeric_weights_flag_exits_2(self, tmp_path, capsys):
        inp = self.posterior_file(
            tmp_path,
            {"posteriors": [{"mean": [0.0], "sigma": [1.0]}, {"mean": [1.0], "sigma": [1.0]}]},
        )
        out = tmp_path / "o.json"
        argv = ["--output", str(out), "--method", "wb", "--weights", "a,b"]
        assert run("aggregate", "--input", inp, *argv) == 2
        assert capsys.readouterr().err == (
            "error: --weights must be comma-separated numbers, got 'a,b'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "covs,message",
        [
            (
                [
                    [
                        [8.129266358761842e46, 7.764164252858095e46],
                        [7.764164252858094e46, 7.41545966119205e46],
                    ],
                    [
                        [2.6612239300971347e76, 2.94520422993033e76],
                        [2.94520422993033e76, 3.2594882374725346e76],
                    ],
                ],
                "barycenter iteration 2: matrix is not PSD: smallest eigenvalue -7.451e-09",
            ),
            (
                [
                    [
                        [2.7833387647690705e51, 4.4685389133651904e51],
                        [4.4685389133651904e51, 1.0095335403618081e52],
                    ],
                    [
                        [2.10872589196551e273, -5.939083402062917e272],
                        [-5.939083402062917e272, 1.672702544749789e272],
                    ],
                ],
                "barycenter iteration 1: covariance smallest eigenvalue -7.316e+255 "
                "is below the floor 1e-12",
            ),
        ],
        ids=["indefinite_iterate", "result_below_floor"],
    )
    def test_ill_conditioned_wb_full_exits_3(self, tmp_path, capsys, covs, message):
        # accepted members (eigenvalue ratios down to 8.8e-14) whose
        # iteration fails in rounding: a numeric failure of wb_full, not a
        # matrix the user gave
        doc = {"posteriors": [{"mean": [0, 0], "cov": c} for c in covs]}
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # a member whose smallest eigenvalue is at most d * eps times its largest
    FOUND_SINGULAR = [
        [7.34663342348146e194, 2.7148700051497356e194],
        [2.7148700051497356e194, 1.0032512472044572e194],
    ]
    FOUND_SINGULAR_TOO = [
        [1.6027992862684582e243, 2.7295081228032707e244],
        [2.7295081228032707e244, 4.648251753214952e245],
    ]

    @pytest.mark.parametrize(
        "covs,smallest,largest",
        [
            ([FOUND_SINGULAR, FOUND_SINGULAR_TOO], "1.020e+178", "8.350e+194"),
            ([FOUND_SINGULAR_TOO, FOUND_SINGULAR], "2.016e+227", "4.664e+245"),
            (
                [
                    [
                        [2.432088779122967e184, -2.389198666106787e184],
                        [-2.389198666106787e184, 2.347064924243803e184],
                    ],
                    [
                        [8.204078270454097e106, -1.2042653682700895e108],
                        [-1.2042653682700898e108, 1.7677246738523125e109],
                    ],
                ],
                "1.350e+168",
                "4.779e+184",
            ),
            (
                [
                    [
                        [1.7509965794436136e288, -3.1477182467894685e288],
                        [-3.1477182467894685e288, 5.658566257347982e288],
                    ],
                    [
                        [4.129396930668272e187, 1.2660840201175585e188],
                        [1.2660840201175585e188, 3.8818470902907976e188],
                    ],
                ],
                "1.571e+272",
                "7.410e+288",
            ),
        ],
        ids=["ratio_1e-17", "ratio_4e-19", "was_indefinite_iterate", "was_result_below_floor"],
    )
    def test_numerically_singular_covariance_exits_2(
        self, tmp_path, capsys, covs, smallest, largest
    ):
        # first members with eigenvalue ratios of 4.3e-19 to 2.8e-17 pass the
        # absolute floor, and wb_full failed on them with exit 3: the iterate
        # became singular, turned indefinite or fell below the floor
        doc = {"posteriors": [{"mean": [0, 0], "cov": c} for c in covs]}
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        assert run("aggregate", "--input", inp, "--output", str(out), "--method", "wb") == 2
        assert capsys.readouterr().err == (
            f"error: posteriors[0]: covariance is numerically singular: smallest "
            f"eigenvalue {smallest} is at most 2 * eps times the largest, {largest}\n"
        )
        assert not out.exists()

    def test_overflowing_poe_result_exits_3(self, tmp_path, capsys):
        # the sigma floor makes each precision 1e12; precision * 1e300 overflows
        doc = {
            "posteriors": [
                {"mean": [0.0], "sigma": [1e-300]},
                {"mean": [1e300], "sigma": [1e-300]},
            ]
        }
        inp = self.posterior_file(tmp_path, doc)
        out = tmp_path / "o.json"
        code = run("aggregate", "--input", inp, "--output", str(out), "--method", "poe")
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: poe aggregation overflowed: the result is not finite\n"
        )
        # an output file that already exists keeps its bytes
        out.write_bytes(b"previous bytes\n")
        code = run("aggregate", "--input", inp, "--output", str(out), "--method", "poe")
        assert code == 3
        assert out.read_bytes() == b"previous bytes\n"

    @pytest.mark.parametrize(
        "method,posteriors,weights,code,message",
        [
            (
                "poe",
                [{"mean": [0.0], "sigma": [1e-300]}, {"mean": [1e300], "sigma": [1e-300]}],
                None,
                3,
                "",
            ),
            (
                # the weights sum to 1 + 5e-13, so the mean overflows
                "wb",
                [
                    {"mean": [1.7976931348623157e308], "cov": [[1.0]]},
                    {"mean": [1.7976931348623157e308], "cov": [[2.0]]},
                ],
                [0.5000000000005, 0.5],
                3,
                "wb aggregation overflowed",
            ),
            ("wb", [{"mean": [0], "sigma": [1]}] * 2, [1e308, 1e308], 2, "weights sum to inf,"),
            ("wb", [{"mean": [0], "sigma": [1]}] * 2, [0.3, 0.3], 2, "weights sum to 0.6,"),
        ],
        ids=["poe-posteriors0", "wb-posteriors1", "wb-weights_sum_overflows", "wb-weights_sum"],
    )
    def test_overflow_leaves_one_stderr_line(
        self, tmp_path, method, posteriors, weights, code, message
    ):
        inp = tmp_path / "input.json"
        doc = {"posteriors": posteriors}
        if weights is not None:
            doc["weights"] = weights
        write_json(inp, doc)
        out = tmp_path / "o.json"
        argv = ["aggregate", "--input", str(inp), "--output", str(out), "--method", method]
        proc = subprocess.run(
            [sys.executable, "-m", "baryvae.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr
        assert not out.exists()


GOLDEN_FAMILIES = {
    "one_member": [{"mean": [0.5, -1.25, 3.0], "sigma": [0.8, 1.5, 0.3]}],
    "three_members": [
        {"mean": [0.1, -2.3, 1.7, 0.0], "sigma": [0.9, 1.1, 0.4, 2.2]},
        {"mean": [-1.4, 0.6, 2.5, -0.7], "sigma": [1.3, 0.35, 0.75, 1.9]},
        {"mean": [2.2, -0.05, -3.1, 1.6], "sigma": [0.45, 2.6, 1.05, 0.6]},
    ],
    "sigmas_at_floor": [
        {"mean": [1.0, -1.0, 0.5], "sigma": [1e-6, 0.0, 2.0]},
        {"mean": [3.0, 2.0, -0.5], "sigma": [1e-6, 5e-7, 1e-6]},
    ],
    "five_members": [
        {"mean": [0.3, -0.7], "sigma": [0.6, 1.2]},
        {"mean": [1.8, 2.4], "sigma": [2.1, 0.4]},
        {"mean": [-2.1, 0.9], "sigma": [0.95, 1.7]},
        {"mean": [0.05, -1.6], "sigma": [1.35, 0.55]},
        {"mean": [2.75, 0.15], "sigma": [0.25, 2.8]},
    ],
}
# moe and wb read the five-member family with these weights
GOLDEN_WEIGHTS = "0.1,0.2,0.3,0.15,0.25"
# SHA-256 of each output file as the per-method kernels wrote it, before the
# five methods shared one kernel. Every step is elementwise float64 numpy,
# so the bytes do not depend on the BLAS build.
GOLDEN_SHA256 = {
    "one_member-poe": "ef337e701aae66cda6f2d36d18b0afd1780269a847fe1d6e4fef5931a6b3d8de",
    "one_member-moe": "38cb00574ce2bf1d8bedc1e948aeed2f0bb8e481ac434d5e8910ff23a1794fb7",
    "one_member-wb": "28ead8d888f8b722c577bd79f5162bcaabdbfa52484d946d34037de67b6e7039",
    "one_member-mopoe": "fa999c943ad815eb1e38b251a01e9c82796a447d05884b86ab0a3bcf17725483",
    "one_member-mwb": "7d6cb3a7b5160e331931d5b533f07166d24f728b9c1112fe504bd32cbc30431e",
    "three_members-poe": "d569fb3950a0c594400a7a74759a3130065ba0b66aad755fdd3488b01aef293d",
    "three_members-moe": "b88a30a21327549904930fcfb53bdc6e9afe63a17d355b5685518508611dbf46",
    "three_members-wb": "62a050c40ea8e2b1e749b88d1b07fad3fdff357240b38f74ac26ebdae85c59a9",
    "three_members-mopoe": "f108ef0a5ec4462c6500f234e8f3138f13975ab20aa039ea6bb84f59abdd5b4d",
    "three_members-mwb": "5b64a42b97fdc9ba8f4f94c7b2d4e39b4564eac07aaa2cda4b486396d2c63a6b",
    "sigmas_at_floor-poe": "22444eb537d8cd65c8871062566b6a9366738e8a3afaf30f305ae76aa6659647",
    "sigmas_at_floor-moe": "e4795bc287d76f518cb733de232458356561c3e75e6dec53ecafe1d5ee50abe6",
    "sigmas_at_floor-wb": "a349b06827d53d4b55a6b9f96a1dd8502cf4a9afe41895e71445cd366dde7c90",
    "sigmas_at_floor-mopoe": "ff4bda75a95337ea64aee2f0ff8bd49cf03f1d1f1e5dbfbb6bddd625260ee22f",
    "sigmas_at_floor-mwb": "d468a7fe2316597a337d45938955b182fcd851affe4417effcf86646813f4051",
    "five_members-poe": "c1d01dd56175817a40be4a310f29db1f44ffbd77b67f8c98653655a680242c90",
    "five_members-moe": "043d0aebfa16a3dd4361213aa4905e9a8ae18488338cac0b905a819c9bf05ce7",
    "five_members-wb": "0fe52a9aff8377bf4756f8b0a12e28ac789b1a7486ba7c91ee3239c759eeae1c",
    "five_members-mopoe": "d0f79a876865736f6a5b2131efe3bd8db9815bff86c5955cf99f1fbea14455e9",
    "five_members-mwb": "9b99ab421221962697af5b75c57748fca003ed0d146fbf8ba50e462804c6de05",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_diagonal_aggregate_golden_bytes(tmp_path, case):
    family, method = case.split("-")
    inp, out = tmp_path / "in.json", tmp_path / "o.json"
    write_json(inp, {"posteriors": GOLDEN_FAMILIES[family]})
    argv = ["aggregate", "--input", str(inp), "--output", str(out), "--method", method]
    if family == "five_members" and method in bc.WEIGHTED_METHODS:
        argv += ["--weights", GOLDEN_WEIGHTS]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[case]


def dumps_bytes(obj):
    return (json.dumps(obj, indent=2) + "\n").encode()


class TestWriteJson:
    """`_write_json` writes the bytes of json.dumps(obj, indent=2) plus a newline."""

    def aggregate_bytes(self, tmp_path, posteriors, method):
        inp, out = tmp_path / "in.json", tmp_path / "o.json"
        write_json(inp, {"posteriors": posteriors})
        assert run("aggregate", "--input", str(inp), "--output", str(out), "--method", method) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("method", bc.METHODS)
    def test_aggregate_results(self, tmp_path, method):
        rng = np.random.default_rng(71)
        members = [
            {"mean": rng.normal(size=4).tolist(), "sigma": rng.uniform(0.2, 2.0, 4).tolist()}
            for _ in range(3)
        ]
        raw = self.aggregate_bytes(tmp_path, members, method)
        assert raw == dumps_bytes(json.loads(raw))

    def test_full_covariance_result(self, tmp_path):
        members = [
            {"mean": [0.0, 1.0], "cov": [[1.0, 0.2], [0.2, 1.0]]},
            {"mean": [2.0, 0.0], "cov": [[2.0, -0.1], [-0.1, 1.5]]},
        ]
        raw = self.aggregate_bytes(tmp_path, members, "wb")
        assert raw == dumps_bytes(json.loads(raw))

    def test_checkpoint_and_report_documents(self, tmp_path, monkeypatch):
        written = {}
        write = cli._write_json

        def recording(path, obj):
            written[os.path.basename(path)] = obj
            write(path, obj)

        monkeypatch.setattr(cli, "_write_json", recording)
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 0
        checkpoint = str(tmp_path / "checkpoint.json")
        assert run("eval", "--checkpoint", checkpoint, "--out", str(tmp_path)) == 0
        assert set(written) == {"checkpoint.json", "report.json"}
        # dataclasses.asdict leaves the model's tuples as tuples
        assert isinstance(written["checkpoint.json"]["config"]["model"]["hidden"], tuple)
        for name, doc in written.items():
            assert (tmp_path / name).read_bytes() == dumps_bytes(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": [], "b": {}, "c": [[], {}, ()], "d": [[[]]], "e": [{"f": []}]},
            [],
            {},
            ["a, b", "ü, ß", "", "\u2603, \n"],
            {"k, v": "naïve, ok", "ö": ["x, y"]},
            "plain, text",
            [1.5, "mixed, list", None, [2, 3]],
            [0, "a number first, then text"],
            [1, -2, True, False, None, 3.5, -0.0, 5e-324, 1e308, 10**30],
            {"t": True, "f": False, "n": None, "i": 7, "x": (1, (2.5, None), [])},
            {1: "int key", 2.5: [1.0], False: None, None: 0},
            7,
            None,
            [[math.nan, math.inf], -math.inf],
        ],
    )
    def test_matches_json_dumps(self, tmp_path, doc):
        cli._write_json(str(tmp_path / "o.json"), doc)
        assert (tmp_path / "o.json").read_bytes() == dumps_bytes(doc)


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        metrics = (out / "metrics.csv").read_text()
        lines = metrics.strip().split("\n")
        assert lines[0] == "epoch,loss,recon_mod0,recon_mod1,kl"
        assert len(lines) == 3  # header + 2 epochs
        assert metrics.endswith("\n")
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["format_version"] == 1
        assert "params" in ckpt and "rng_state" in ckpt

    def test_deterministic_metrics_bytes(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", str(cfg), "--out", str(out_a)) == 0
        assert run("train", "--config", str(cfg), "--out", str(out_b)) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()

    def test_missing_data_section_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_json(cfg, {"model": {"latent_dim": 4}})
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "'data'" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"]["dropout"] = 0.5
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "dropout" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda doc: doc.update(model=5),
                "field 'model' in config must be a JSON object, got 5",
            ),
            (
                lambda doc: doc.update(split={"train_fraction": "x"}),
                "field 'train_fraction' in split section must be a finite number, got 'x'",
            ),
            (
                lambda doc: doc["data"]["toy"].update(examples_per_class="3"),
                "field 'examples_per_class' in data.toy section must be an integer, got '3'",
            ),
            (
                lambda doc: doc["model"].update(epochs=1.5),
                "field 'epochs' in model section must be an integer, got 1.5",
            ),
            (
                lambda doc: doc["eval"].update(importance_samples=0),
                "field 'importance_samples' in eval section must be an integer >= 1, got 0",
            ),
            (
                lambda doc: doc["model"].update(hidden=[0]),
                "invalid model section: hidden sizes must be >= 1",
            ),
            (
                lambda doc: doc["model"].update(hidden=[16, -1]),
                "invalid model section: hidden sizes must be >= 1",
            ),
            (
                lambda doc: doc["model"].update(seed=-3),
                "field 'seed' in model section must be an integer >= 0, got -3",
            ),
            (
                lambda doc: doc["data"]["toy"].update(seed=-1),
                "field 'seed' in data.toy section must be an integer >= 0, got -1",
            ),
            (
                lambda doc: doc["split"].update(seed=-1),
                "field 'seed' in split section must be an integer >= 0, got -1",
            ),
            (
                lambda doc: doc["eval"].update(seed=-1),
                "field 'seed' in eval section must be an integer >= 0, got -1",
            ),
            # an integer beyond the 64-bit range is named by its length
            (
                lambda doc: doc["model"].update(beta=10**400),
                "field 'beta' in model section must be a finite number, got a 401-digit integer",
            ),
            # integers that may size an array must fit in 64 bits
            (
                lambda doc: doc["model"].update(latent_dim=10**400),
                "field 'latent_dim' in model section must be an integer in the signed 64-bit "
                "range, got a 401-digit integer",
            ),
            (
                lambda doc: doc["model"].update(hidden=[16, 10**400]),
                "field 'hidden' in model section must be a list of integers in the signed "
                "64-bit range, got [16, a 401-digit integer]",
            ),
            (
                lambda doc: doc["data"]["toy"].update(examples_per_class=10**400),
                "field 'examples_per_class' in data.toy section must be an integer in the "
                "signed 64-bit range, got a 401-digit integer",
            ),
            (
                lambda doc: doc["model"].update(seed=-(10**400)),
                "field 'seed' in model section must be an integer >= 0, "
                "got a 401-digit negative integer",
            ),
            (
                lambda doc: doc["data"].update(idx={"images": 5}),
                "data section must name exactly one of 'toy' and 'idx'",
            ),
            # a long value is shown by its first 36 characters
            (
                lambda doc: doc["model"].update(hidden=["a"] * 20),
                "field 'hidden' in model section must be a list of integers, "
                "got ['a', 'a', 'a', 'a', 'a', 'a', 'a',  ...",
            ),
        ],
        ids=["model_not_object", "split_fraction_text", "toy_count_text", "epochs_float",
             "eval_zero_samples", "hidden_zero", "hidden_negative", "model_seed_negative",
             "toy_seed_negative", "split_seed_negative", "eval_seed_negative",
             "beta_beyond_float_range", "latent_dim_beyond_int64", "hidden_beyond_int64",
             "toy_count_beyond_int64", "seed_below_int64", "data_both_sources",
             "long_value_cut"],
    )
    def test_malformed_field_exits_2_at_train(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(TOY_CONFIG))
        edit(doc)
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_seeds_and_epochs_take_any_size(self):
        # they size no array, so only the other integers are held to 64 bits
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"].update(seed=10**400, epochs=10**400)
        doc["data"]["toy"]["seed"] = 10**400
        run_config, _ = cli.parse_run_config(doc)
        assert run_config.model.seed == run_config.model.epochs == 10**400

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out), "--seed", "-3") == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("fraction,side", [(0.1, "train"), (0.9, "test")])
    def test_empty_split_exits_2(self, tmp_path, capsys, fraction, side):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["data"]["toy"]["examples_per_class"] = 2
        doc["split"]["train_fraction"] = fraction
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"error: train_fraction {fraction} leaves the {side} split empty\n"
        )
        assert not (tmp_path / "o").exists()

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"]["likelihood"] = "gaussian"
        doc["model"]["learning_rate"] = 1e160  # overflows the squared error
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert "epoch" in err

    def test_unallocatable_hidden_size_exits_2(self, tmp_path, capsys):
        # 2**45 hidden units ask for a 16 PiB weight matrix, past any address
        # space, so the allocation fails at once whatever the overcommit policy
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"]["hidden"] = [2**45]
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_numeric_failure_prints_one_line(self, tmp_path):
        # no numpy warning on the way to the error, as in aggregate and eval
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"]["learning_rate"] = 1e300
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "baryvae.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: non-finite kl in training objective (epoch 0, step 1)\n"
        assert not (tmp_path / "o").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("BARYVAE_OUT", str(env_dir))
        assert run("train", "--config", str(cfg)) == 0
        assert (env_dir / "metrics.csv").exists()


class TestIdxDataPath:
    @staticmethod
    def write_pair(tmp_path, n, side):
        import struct

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, side, side)).astype(np.uint8)
        labels = (np.arange(n) % 10).astype(np.uint8)
        img_path = tmp_path / "imgs.idx"
        lbl_path = tmp_path / "lbls.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
        lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
        return img_path, lbl_path

    def test_train_on_idx_files(self, tmp_path):
        img_path, lbl_path = self.write_pair(tmp_path, 40, 4)
        cfg = tmp_path / "config.json"
        write_json(
            cfg,
            {
                "model": {"latent_dim": 3, "hidden": [8], "epochs": 1, "batch_size": 8},
                "data": {"idx": {"images": str(img_path), "labels": str(lbl_path)}},
            },
        )
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,recon_mod0,kl"
        assert len(lines) == 2

    @pytest.mark.parametrize("name", ["imgs.idx", "lbls.idx"])
    @pytest.mark.parametrize("keep", [3, 6, -1], ids=["magic", "count", "body"])
    def test_truncated_file_exits_2(self, tmp_path, capsys, name, keep):
        self.write_pair(tmp_path, 40, 4)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:keep])
        cfg = tmp_path / "config.json"
        write_json(
            cfg,
            {
                "model": {"latent_dim": 3, "hidden": [8], "epochs": 1, "batch_size": 8},
                "data": {"idx": {"images": str(tmp_path / "imgs.idx"),
                                 "labels": str(tmp_path / "lbls.idx")}},
            },
        )
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: truncated") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_pixel_images_exit_2(self, tmp_path, capsys):
        img_path, lbl_path = self.write_pair(tmp_path, 20, 0)
        cfg = tmp_path / "config.json"
        write_json(
            cfg,
            {
                "model": {"latent_dim": 3, "hidden": [8], "epochs": 1, "batch_size": 8},
                "data": {"idx": {"images": str(img_path), "labels": str(lbl_path)}},
            },
        )
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: invalid model section: input_dims must be >= 1\n"
        assert not out.exists()


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        return out

    def test_report_structure(self, trained, tmp_path):
        out = tmp_path / "eval"
        code = run("eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["latent_accuracy"]) == 3  # 2^2 - 1 subsets
        assert all(0.0 <= v <= 1.0 for v in report["latent_accuracy"].values())
        acc_rows = (out / "accuracy.csv").read_text().strip().split("\n")
        assert len(acc_rows) == 4  # header + 3 subsets
        assert all(math.isfinite(v) for v in report["log_likelihood"].values())

    def test_report_files_bytes(self, tmp_path, monkeypatch):
        # The four files of a hand-built report on a 3-modality checkpoint,
        # spelled out: subset names, key order and shortest round-trip floats.
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"]["epochs"] = 1
        doc["data"]["toy"]["num_modalities"] = 3
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
        report = evaluation.EvalReport(
            latent_accuracy={1: 0.1 + 0.2, 5: 0.5, 7: 1.0},
            coherence={(1, 1): 1 / 3, (5, 1): 0.0, (6, 0): 0.75},
            log_likelihood={1: -123.456, 5: -1e16, 7: -1e-05},
            probe_train_counts={1: 60, 5: 59, 7: 7},
        )
        calls = []

        def fake_evaluate_model(vae, train_set, test_set, **settings):
            calls.append(settings)
            return report

        monkeypatch.setattr(evaluation, "evaluate_model", fake_evaluate_model)
        out = tmp_path / "eval"
        checkpoint = tmp_path / "run" / "checkpoint.json"
        assert run("eval", "--checkpoint", str(checkpoint), "--out", str(out)) == 0
        assert calls == [{**TOY_CONFIG["eval"], "seed": 0}]
        assert (out / "report.json").read_text() == (
            "{\n"
            '  "importance_samples": 8,\n'
            '  "latent_accuracy": {\n'
            '    "0": 0.30000000000000004,\n'
            '    "0+2": 0.5,\n'
            '    "0+1+2": 1.0\n'
            "  },\n"
            '  "coherence": {\n'
            '    "0->1": 0.3333333333333333,\n'
            '    "0+2->1": 0.0,\n'
            '    "1+2->0": 0.75\n'
            "  },\n"
            '  "log_likelihood": {\n'
            '    "0": -123.456,\n'
            '    "0+2": -1e+16,\n'
            '    "0+1+2": -1e-05\n'
            "  },\n"
            '  "probe_train_counts": {\n'
            '    "0": 60,\n'
            '    "0+2": 59,\n'
            '    "0+1+2": 7\n'
            "  }\n"
            "}\n"
        )
        assert (out / "accuracy.csv").read_text() == (
            "subset,accuracy,probe_train_count\n"
            "0,0.30000000000000004,60\n"
            "0+2,0.5,59\n"
            "0+1+2,1.0,7\n"
        )
        assert (out / "coherence.csv").read_text() == (
            "source_subset,target_modality,coherence\n"
            "0,1,0.3333333333333333\n"
            "0+2,1,0.0\n"
            "1+2,0,0.75\n"
        )
        assert (out / "loglik.csv").read_text() == (
            "subset,log_likelihood,importance_samples\n"
            "0,-123.456,8\n"
            "0+2,-1e+16,8\n"
            "0+1+2,-1e-05,8\n"
        )

    def test_non_finite_probe_fit_exits_3(self, tmp_path):
        # A learning rate of 1e307 leaves finite parameters near 1e307, whose
        # latents overflow the probe fit: a numeric failure, not an input error.
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"].update(
            hidden=[4], latent_dim=2, batch_size=1000, epochs=1, learning_rate=1e307
        )
        cfg = tmp_path / "config.json"
        write_json(cfg, doc)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "baryvae.cli", "eval",
             "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
             "--out", str(tmp_path / "eval")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: linear probe fit is not finite\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("fraction,side", [(0.1, "train"), (0.9, "test")])
    def test_empty_split_exits_2(self, trained, tmp_path, capsys, fraction, side):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["data"]["toy"]["examples_per_class"] = 2
        doc["split"]["train_fraction"] = fraction
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint.json"),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: train_fraction {fraction} leaves the {side} split empty\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "toy",
        [{"num_modalities": 1}, {"num_modalities": 3}, {"resolution": 6}],
        ids=["fewer_modalities", "more_modalities", "other_resolution"],
    )
    def test_data_not_fitting_the_model_exits_2(self, trained, tmp_path, capsys, toy):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["data"]["toy"].update(toy)
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint.json"),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "[64, 64]" in err and "do not match" in err
        assert not out.exists()

    @pytest.mark.parametrize("version", [99, True, 1.0])
    def test_tampered_version_exits_4(self, trained, tmp_path, capsys, version):
        # only the JSON integer 1 is version 1
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["format_version"] = version
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        assert "format_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("config", "split"), [1]),
            (("config", "eval"), [1]),
            (("config", "data"), 5),
            (("config", "split", "train_fraction"), "x"),
            (("config", "eval", "importance_samples"), "x"),
            (("config", "model", "epochs"), 1.5),
            (("config", "model", "hidden"), [0]),
            (("config", "model", "input_dims"), [64, 0]),
            (("rng_state", "adam_step"), 1.7),
            (("params",), 3),
            (("rng_state", "seed"), "x"),
            (("rng_state", "seed"), TOY_CONFIG["model"]["seed"] + 1),
            (("config", "model", "seed"), -1),
            (("config", "data", "toy", "seed"), -1),
            (("config", "split", "seed"), -1),
            (("config", "eval", "seed"), -1),
            (("config", "model", "beta"), 10**400),
            (("config", "model", "latent_dim"), 10**400),
            (("config", "model", "hidden"), [10**400]),
            (("config", "data", "toy", "examples_per_class"), 10**400),
            # every key the loader does not read is rejected, parameters included
            (("params", "extra"), {"shape": [1], "data": [0.0]}),
            (("params", "dec0.b0", "scale"), 1.0),
            (("rng_state", "epoch"), 0),
            (("comment",), "x"),
            (("config", "data", "idx"), {"images": 5}),
        ],
        ids=[
            "split_list",
            "eval_list",
            "data_number",
            "train_fraction_text",
            "importance_samples_text",
            "epochs_fraction",
            "hidden_zero",
            "input_dims_zero",
            "adam_step_fraction",
            "params_number",
            "rng_seed_text",
            "rng_seed_not_the_model_seed",
            "model_seed_negative",
            "toy_seed_negative",
            "split_seed_negative",
            "eval_seed_negative",
            "beta_beyond_float_range",
            "latent_dim_beyond_int64",
            "hidden_beyond_int64",
            "toy_count_beyond_int64",
            "unknown_parameter",
            "unknown_parameter_key",
            "unknown_rng_state_key",
            "unknown_key",
            "data_both_sources",
        ],
    )
    def test_malformed_checkpoint_field_exits_4(self, trained, tmp_path, capsys, path, value):
        doc = json.loads((trained / "checkpoint.json").read_text())
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path[-1] in err

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("split", {"train_fraction": 1.5}, "train_fraction must be in (0, 1)"),
            ("split", {"train_fraction": 0.99}, "leaves the test split empty"),
            (
                "data",
                {"toy": {"resolution": 4}},
                "model.input_dims [64, 64] does not match dataset [16, 16]",
            ),
        ],
        ids=["fraction_beyond_one", "empty_test_split", "data_not_fitting_the_model"],
    )
    def test_checkpoint_split_or_data_at_fault_exits_4(
        self, trained, tmp_path, capsys, section, value, message
    ):
        # without an override, the checkpoint's own settings are at fault
        doc = json.loads((trained / "checkpoint.json").read_text())
        for key, setting in value.items():
            if isinstance(setting, dict):
                doc["config"][section][key].update(setting)
            else:
                doc["config"][section][key] = setting
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt checkpoint {bad}: config: ")
        assert message in err and err.count("\n") == 1

    def test_parameter_without_data_exits_4(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "checkpoint.json").read_text())
        del doc["params"]["dec1.b0"]["data"]
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err == f"error: corrupt checkpoint {bad}: missing field 'data' in parameter dec1.b0\n"

    def test_wrong_shape_is_shown_by_its_start(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["params"]["dec1.b0"]["shape"] = [100000] * 40
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        prefix = f"error: corrupt checkpoint {bad}: parameter dec1.b0 must have shape [16], got "
        assert err.startswith(prefix + "[100000, 100000, ") and err.count("\n") == 1
        assert len(err) <= len(prefix) + 41

    def test_unallocatable_checkpoint_model_exits_4(self, trained, tmp_path, capsys):
        # as at train, 2**45 hidden units ask for 16 PiB and fail at once
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["config"]["model"]["hidden"] = [2**45]
        bad = tmp_path / "bad.json"
        write_json(bad, doc)
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt checkpoint {bad}: ") and err.count("\n") == 1

    def test_importance_samples_written_from_the_eval_section(self, trained, tmp_path):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["eval"]["importance_samples"] = 5
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        checkpoint = str(trained / "checkpoint.json")
        for override, count in (([], 8), (["--config", str(cfg)], 5)):
            out = tmp_path / f"eval{count}"
            assert run("eval", "--checkpoint", checkpoint, *override, "--out", str(out)) == 0
            assert json.loads((out / "report.json").read_text())["importance_samples"] == count
            rows = (out / "loglik.csv").read_text().strip().split("\n")[1:]
            assert [row.rsplit(",", 1)[1] for row in rows] == [str(count)] * 3

    def test_unallocatable_importance_samples_exit_2(self, trained, tmp_path, capsys):
        # 2**46 draws ask for 512 TiB at once, past any address space
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["eval"]["importance_samples"] = 2**46
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint.json"),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_parameter_exits_4(self, trained, tmp_path, capsys, bad):
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["params"]["dec1.b0"]["data"][0] = bad
        path = tmp_path / "bad.json"
        write_json(path, doc)
        assert run("eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dec1.b0" in err

    def test_parameter_beyond_float_range_exits_4(self, trained, tmp_path, capsys):
        # json reads 10**400 as an integer that no float holds
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["params"]["dec1.b0"]["data"][0] = 10**400
        path = tmp_path / "bad.json"
        write_json(path, doc)
        assert run("eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dec1.b0" in err and "float range" in err

    def test_overflowing_parameters_leave_stderr_empty(self, trained, tmp_path):
        doc = json.loads((trained / "checkpoint.json").read_text())
        entry = doc["params"]["enc0.w0"]
        entry["data"] = [1e308] * len(entry["data"])
        path = tmp_path / "huge.json"
        write_json(path, doc)
        argv = ["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-m", "baryvae.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_config_override_builds_dataset_once(self, trained, tmp_path, monkeypatch):
        built = []
        original = cli.build_dataset

        def counting(data_spec):
            built.append(data_spec)
            return original(data_spec)

        monkeypatch.setattr(cli, "build_dataset", counting)
        cfg = tmp_path / "eval_config.json"
        write_json(cfg, TOY_CONFIG)
        argv = ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--config", str(cfg)]
        assert run(*argv, "--out", str(tmp_path / "o")) == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "field,value,saved",
        [("aggregation", "mwb", '"wb"'), ("latent_dim", 9, "4"), ("hidden", [3, 3], "[16]"),
         ("seed", 5, "0")],
    )
    def test_override_changing_the_model_exits_2(
        self, trained, tmp_path, capsys, field, value, saved
    ):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["model"][field] = value
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint.json"),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: field '{field}' in model section is {json.dumps(value)}, "
            f"but the checkpoint's model has {saved}\n"
        )
        assert not out.exists()

    def test_override_data_not_fitting_the_model_exits_2(self, trained, tmp_path, capsys):
        # the override's data is at fault, not the checkpoint: exit 2, not 4
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["data"]["toy"]["resolution"] = 4
        cfg = tmp_path / "override.json"
        write_json(cfg, doc)
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint.json"),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dataset input dims [16, 16] do not match the checkpoint's model [64, 64]\n"
        )
        assert not out.exists()

    def test_json_list_checkpoint_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        write_json(bad, [1, 2, 3])
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "JSON object" in err

    def test_unreadable_checkpoint_exits_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o")) == 4


@pytest.mark.parametrize(
    "command, code",
    [("aggregate", 2), ("train", 2), ("eval-checkpoint", 4), ("eval-config", 2)],
)
def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys, command, code):
    deep = str(tmp_path / "deep.json")
    with open(deep, "w", encoding="utf-8") as f:
        f.write("[" * 100_000 + "]" * 100_000)
    out = str(tmp_path / "out")
    checkpoint = str(tmp_path / "run" / "checkpoint.json")
    if command == "eval-config":
        cfg = tmp_path / "config.json"
        write_json(cfg, TOY_CONFIG)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
    argv = {
        "aggregate": ["aggregate", "--input", deep, "--output", out, "--method", "wb"],
        "train": ["train", "--config", deep, "--out", out],
        "eval-checkpoint": ["eval", "--checkpoint", deep, "--out", out],
        "eval-config": ["eval", "--checkpoint", checkpoint, "--config", deep, "--out", out],
    }[command]
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err
