"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must accept the program's own output and reject the same output
with one deliberate fault in it. Prints one line per case and exits 1 if any
check accepts a faulty output or rejects a correct one.
"""

import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import documents  # noqa: E402
import workloads  # noqa: E402
from baryvae import cli, data, mmvae  # noqa: E402

FAILURES = []


def case(name, accepted, rejected):
    """`accepted` must be None (check passed), `rejected` a reason string."""
    ok = accepted is None and bool(rejected)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: correct -> {accepted}; fault -> {rejected}")
    if not ok:
        FAILURES.append(name)


def aggregate(tmp, doc):
    src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
    with open(src, "w", encoding="utf-8") as f:
        json.dump(doc.body, f)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["aggregate", "--input", src, "--output", dst, "--method", doc.method])
    result = None
    if code == 0:
        with open(dst, encoding="utf-8") as f:
            result = json.load(f)
    return code, err.getvalue(), result


def diag_cases(tmp):
    rng = np.random.default_rng(1)
    docs = {d.method: d for d in documents.diag_round(rng) if d.kind == "diag"}
    # (method, path to one value of the result, size of the shift)
    faults = [
        ("poe", ("mean", 0), 1e-6),
        ("wb", ("sigma", 3), 1e-6),
        ("moe", ("weights", 0), 1e-6),
        ("mopoe", ("components", 5, "sigma", 2), 1e-6),
        ("mwb", ("components", 9, "mean", 1), 1e-6),
    ]
    for method, path, shift in faults:
        doc = docs[method]
        _, _, result = aggregate(tmp, doc)
        bad = copy.deepcopy(result)
        holder = bad
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] += shift
        case(
            f"{method} closed form, {'.'.join(map(str, path))} + {shift:g}",
            checks.check_diag(doc.body, method, result),
            checks.check_diag(doc.body, method, bad),
        )
    doc = docs["wb"]
    _, _, result = aggregate(tmp, doc)
    case(
        "method field",
        checks.check_diag(doc.body, "wb", result),
        checks.check_diag(doc.body, "wb", {**result, "method": "poe"}),
    )


def full_cases(tmp):
    docs = documents.full_round(np.random.default_rng(2))
    generic = next(d for d in docs if d.kind == "full" and d.commuting is None)
    _, _, result = aggregate(tmp, generic)
    covs = [np.array(p["cov"]) for p in generic.body["posteriors"]]
    weights = np.array(generic.body.get("weights") or [1.0 / len(covs)] * len(covs))
    out = np.array(result["cov"])
    # Rebuild the iterates from the arithmetic mean; the one before the
    # iterate the program returned is what stopping one iteration early gives.
    s = sum(w * c for w, c in zip(weights, covs))
    previous = s
    for _ in range(200):
        if np.linalg.norm(s - out) <= 1e-10 * np.linalg.norm(out):
            break
        previous, s = s, checks.wb_fixed_point_map(s, covs, weights)
    early = {**result, "cov": ((previous + previous.T) / 2).tolist()}
    case(
        "wb_full residual, one iteration short",
        checks.check_full(generic.body, result),
        checks.check_full(generic.body, early),
    )
    shifted = {**result, "mean": [result["mean"][0] + 1e-6, *result["mean"][1:]]}
    case(
        "wb_full mean + 1e-6",
        checks.check_full(generic.body, result),
        checks.check_full(generic.body, shifted),
    )

    commuting = next(d for d in docs if d.commuting is not None)
    _, _, result = aggregate(tmp, commuting)
    q, eigs, lams = commuting.commuting
    closed = checks.commuting_barycenter(q, eigs, lams)
    moved = checks.commuting_barycenter(q, eigs * (1 + 1e-6), lams)
    case(
        "wb_full commuting closed form, eigenvalues x (1 + 1e-6)",
        checks.check_full(commuting.body, result, closed),
        checks.check_full(commuting.body, result, moved),
    )


def malformed_cases(tmp):
    rng = np.random.default_rng(3)
    docs = documents.diag_round(rng) + documents.full_round(rng)
    for doc in (d for d in docs if d.kind == "malformed" and not d.fails_today):
        code, err, _ = aggregate(tmp, doc)
        case(
            f"malformed {doc.name} rejected",
            None if checks.rejected(code, err) else f"exit {code}",
            "exit 0 counts as failed" if not checks.rejected(0, "") else None,
        )
    case(
        "traceback is not a rejection",
        None if checks.rejected(2, "error: bad input\n") else "rejected a clean exit 2",
        "rejected" if not checks.rejected(2, "Traceback (most recent call last):\n") else None,
    )


def tiny_dataset(seed=0):
    toy = data.ToyConfig(num_modalities=3, examples_per_class=4, resolution=4, seed=seed)
    return data.gen_toy(toy)


def training_cases():
    dataset = tiny_dataset()
    for aggregation in ("poe", "wb", "moe", "mopoe", "mwb"):
        for likelihood in ("bernoulli", "gaussian"):
            config = mmvae.ModelConfig(
                num_modalities=3,
                input_dims=(16, 16, 16),
                latent_dim=3,
                hidden=(8, 6),
                likelihood=likelihood,
                aggregation=aggregation,
                batch_size=8,
                epochs=2,
                seed=4,
            )
            vae = mmvae.MultimodalVae(config)
            batch, noise = workloads.step_inputs(
                config, dataset, 0, 0, workloads.epoch_perm(config, dataset, 0)
            )
            loss, terms = mmvae.elbo(vae, batch, noise)
            model = workloads.model_dict(config)
            ref = checks.elbo_reference(vae.store.params, model, batch, noise)
            term = "kl" if likelihood == "gaussian" else "recon_mod1"
            case(
                f"first step {aggregation}/{likelihood} loss",
                checks.check_first_step(ref, loss, terms),
                checks.check_first_step(ref, loss + 1e-6, terms),
            )
            case(
                f"first step {aggregation}/{likelihood} {term}",
                checks.check_first_step(ref, loss, terms),
                checks.check_first_step(ref, loss, {**terms, term: terms[term] + 1e-6}),
            )

    config = mmvae.ModelConfig(
        num_modalities=3, input_dims=(16, 16, 16), latent_dim=3, hidden=(8,),
        aggregation="mwb", batch_size=8, epochs=2, seed=4,
    )
    _, history = mmvae.train(config, dataset)
    losses = [row["loss"] for row in history]
    run = workloads.Run(ROOT, 0, 1e-9, True, 0.0)
    traced = workloads.traced_train(run, config, dataset, 0)
    nudged = [np.nextafter(losses[0], np.inf), *losses[1:]]
    case(
        "traced loop reproduces mmvae.train",
        checks.check_same("per-epoch loss", traced, losses),
        checks.check_same("per-epoch loss", nudged, losses),
    )
    case(
        "reruns agree",
        checks.check_history([losses, losses]),
        checks.check_history([losses, nudged]),
    )
    flat = [losses[0], losses[0]]
    case("last epoch below first", checks.check_history([losses]), checks.check_history([flat]))


def eval_cases():
    got, want, se = workloads.linear_gaussian_case(0)
    case(
        "linear-Gaussian marginal",
        checks.check_estimate("lg", got, want, se),
        checks.check_estimate("lg", got + 0.1, want, se),
    )
    dataset = tiny_dataset(1)
    config = mmvae.ModelConfig(
        num_modalities=3, input_dims=(16, 16, 16), latent_dim=3, hidden=(8,),
        aggregation="mwb", batch_size=8, epochs=3, seed=2,
    )
    vae, _ = mmvae.train(config, dataset)
    batch = [m[:workloads.LOGLIK_CHECK_EXAMPLES] for m in dataset.modalities]
    got, want, se = workloads.toy_loglik_case(vae, batch, 512, 0)
    case(
        "toy full-subset log-likelihood",
        checks.check_estimate("toy", got, want, se),
        checks.check_estimate("toy", got + 0.5, want, se),
    )
    case(
        "above chance",
        checks.check_above_chance("acc", [0.9, 0.11]),
        checks.check_above_chance("acc", [0.9, 0.1]),
    )


def main():
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "perfbench", "out")) as tmp:
        diag_cases(tmp)
        full_cases(tmp)
        malformed_cases(tmp)
    training_cases()
    eval_cases()
    if FAILURES:
        print(f"{len(FAILURES)} failing case(s)")
    else:
        print("every check accepts the program's output and rejects its fault")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
