"""The benchmark's workloads, each driven through the program's public functions.

Every workload sets up (timed, three times, median kept), then repeats whole
operations until `seconds` have passed, then checks the outputs against the
references in `checks`. An untraced run reports end-to-end metrics. A traced
run wraps the functions of the layers it reaches and reports per-layer
metrics from the spans: per training step, per `evaluate_model` call or per
document, each the median over those identifiers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import time

import numpy as np

import checks
import documents
import spans
from baryvae import barycenter, cli, data, diffgraph, evaluation, gaussian, linalg, mmvae

SETUP_REPEATS = 3
EPOCHS_PER_CALL = 2
# The evaluated model is trained for one epoch on 320 examples at batch size
# 4: enough for coherence well above chance, and small enough that its tape
# does not set the process's peak memory ahead of the evaluation itself.
EVAL_TRAIN_EXAMPLES = 320
EVAL_TRAIN_BATCH = 4
LOGLIK_CHECK_EXAMPLES = 4
LOGLIK_CHECK_SAMPLES = 8192
DIAG_POOL_ROUNDS = 8
FULL_POOL_ROUNDS = 4

PRIMITIVES = ("matmul", "add", "mul", "tanh", "softplus", "exp", "log", "square", "vsum", "concat")
AGG_METHODS = {"poe": "poe", "moe": "moe", "wb": "wb_diag", "mopoe": "mopoe", "mwb": "mwb"}

# Every per-layer metric, in the order printed; a workload that never reaches
# a layer reports 0 for it.
PER_LAYER = (
    [("data.gen_toy.s", "s"), ("data.split.s", "s"), ("traced.op_s", "s")]
    + [
        ("diffgraph.as_values.s", "s"),
        ("diffgraph.adam_step.s", "s"),
        ("diffgraph.backward.s", "s"),
        ("diffgraph.nodes_per_step", "count"),
        ("diffgraph.node_mb_per_step", "MB"),
        ("mmvae.elbo.s", "s"),
        ("mmvae.elbo.self_s", "s"),
    ]
    + [(f"diffgraph.{p}.calls", "count") for p in PRIMITIVES]
    + [(f"diffgraph.{p}.s", "s") for p in PRIMITIVES]
    + [
        ("evaluation.test_log_likelihood.s", "s"),
        ("evaluation.test_log_likelihood.self_s", "s"),
        ("evaluation.fit_linear_probe.s", "s"),
        ("evaluation.latent_means.s", "s"),
        ("evaluation.coherence.s", "s"),
        ("mmvae.encode_arrays.calls", "count"),
        ("mmvae.encode_arrays.rows", "count"),
        ("mmvae.encode_arrays.s", "s"),
        ("mmvae.decode_array.calls", "count"),
        ("mmvae.decode_array.rows", "count"),
        ("mmvae.decode_array.s", "s"),
        ("mmvae.aggregate_arrays.calls", "count"),
        ("mmvae.aggregate_arrays.s", "s"),
        ("cli.main.self_s", "s"),
    ]
    + [(f"barycenter.{m}.s", "s") for m in AGG_METHODS.values()]
    + [
        ("barycenter.wb_full.s", "s"),
        ("barycenter.wb_full.iterations", "count"),
        ("linalg.sym_eig.calls", "count"),
        ("linalg.sym_eig.s", "s"),
        ("linalg.sqrtm_psd.calls", "count"),
        ("linalg.sqrtm_psd.s", "s"),
        ("gaussian.full_gaussian.s", "s"),
    ]
)
END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")]


class Run:
    """State shared by one run: arguments, tracer, outcome counters."""

    def __init__(self, root, seed, seconds, traced, import_s):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer = spans.Tracer() if traced else None
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.layers = {}
        self.op_s = None
        self.setup_s = None
        self.peak_mb = None

    def check(self, problem):
        if problem:
            self.errors.append(problem)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def patched(self, targets):
        return spans.patched(self.tracer, targets) if self.tracer else contextlib.nullcontext()

    def set_up(self, fn):
        """Run `fn` SETUP_REPEATS times; keep the last state, the median time."""
        times = []
        targets = [(data, "gen_toy", "data.gen_toy"), (data, "split", "data.split")]
        with self.patched(targets):
            for rep in range(SETUP_REPEATS):
                if self.tracer:
                    self.tracer.ident = f"setup{rep}"
                start = time.perf_counter()
                state = fn()
                times.append(time.perf_counter() - start)
        if self.tracer:
            setups = [f"setup{r}" for r in range(SETUP_REPEATS)]
            for name in ("data.gen_toy", "data.split"):
                self.layers[f"{name}.s"] = spans.median_or_zero(
                    spans.per_ident(self.tracer, name, idents=setups).values()
                )
        self.setup_s = self.import_s + statistics.median(times)
        return state

    def for_seconds(self, op):
        """Call op() until `seconds` have passed; at least once.

        Peak memory is read here, before the output checks allocate their own
        arrays.
        """
        start = time.perf_counter()
        while True:
            op()
            if time.perf_counter() - start >= self.seconds:
                break
        self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(self):
        if self.tracer:
            return {
                name: self.layers.get(name, 0 if unit == "count" else 0.0)
                for name, unit in PER_LAYER
            }
        return {"setup_s": self.setup_s, "op_s": self.op_s, "peak_rss_mb": self.peak_mb}


def _load_config(run, name, **model_overrides):
    """Shipped config with the workload seed as data, split, model and eval seed."""
    with open(os.path.join(run.root, "configs", name), encoding="utf-8") as f:
        doc = json.load(f)
    doc["data"]["toy"]["seed"] = run.seed
    doc["split"]["seed"] = run.seed
    doc["model"]["seed"] = run.seed
    doc["eval"]["seed"] = run.seed
    run_config, dataset = cli.parse_run_config(doc)
    train_set, test_set = data.split(
        dataset, run_config.split_spec["train_fraction"], run_config.split_spec["seed"]
    )
    model = mmvae.config_with(run_config.model, **model_overrides)
    return model, run_config.eval_spec, train_set, test_set


def model_dict(config):
    return {
        "hidden": config.hidden,
        "aggregation": config.aggregation,
        "likelihood": config.likelihood,
        "beta": config.beta,
    }


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def step_inputs(config, dataset, epoch, step, perm):
    idx = perm[step * config.batch_size : (step + 1) * config.batch_size]
    batch = [mod[idx] for mod in dataset.modalities]
    k = mmvae.num_mixture_components(config)
    noise = diffgraph.rng_stream(config.seed, mmvae._TAG_NOISE, epoch, step).standard_normal(
        (k, len(idx), config.latent_dim)
    )
    return batch, noise


def epoch_perm(config, dataset, epoch):
    return diffgraph.rng_stream(config.seed, mmvae._TAG_SHUFFLE, epoch).permutation(
        dataset.num_examples
    )


def traced_train(run, config, dataset, call):
    """`mmvae.train`'s loop rebuilt from public calls, one span per phase.

    Returns the per-epoch mean losses, summed in the same order as
    `mmvae.train`, so they must match its history bit for bit.
    """
    vae = mmvae.MultimodalVae(config)
    steps = -(-dataset.num_examples // config.batch_size)
    losses = []
    for epoch in range(config.epochs):
        perm = epoch_perm(config, dataset, epoch)
        total = 0.0
        for step in range(steps):
            batch, noise = step_inputs(config, dataset, epoch, step, perm)
            run.tracer.ident = f"call{call}.epoch{epoch}.step{step}"
            with run.span("train.step"):
                with run.span("diffgraph.as_values"):
                    values = vae.store.as_values()
                build = mmvae.elbo_builder(vae, batch, noise)
                with run.span("mmvae.elbo"):
                    loss = build(values)
                with run.span("diffgraph.backward"):
                    loss.backward()
                grads = {name: values[name].grad for name in vae.store.names()}
                with run.span("diffgraph.adam_step"):
                    diffgraph.adam_step(vae.store, grads, lr=config.learning_rate)
            total += float(loss.data)
        losses.append(total / steps)
    return losses


def _tape_size(config, dataset):
    """Nodes built by one step and the bytes of their data and gradients."""
    built = []
    original = diffgraph.Value.__init__

    def counting_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    vae = mmvae.MultimodalVae(config)
    batch, noise = step_inputs(config, dataset, 0, 0, epoch_perm(config, dataset, 0))
    diffgraph.Value.__init__ = counting_init
    try:
        values = vae.store.as_values()
        mmvae.elbo_builder(vae, batch, noise)(values).backward()
    finally:
        diffgraph.Value.__init__ = original
    nbytes = 0
    for node in built:
        nbytes += node.data.nbytes
        grad = getattr(node, "grad", None)
        nbytes += grad.nbytes if grad is not None else 0
    return len(built), nbytes / 2**20


def _train_losses(config, dataset):
    return [row["loss"] for row in mmvae.train(config, dataset)[1]]


def train_workload(run, config_name):
    config, _, train_set, _ = run.set_up(
        lambda: _load_config(run, config_name, epochs=EPOCHS_PER_CALL)
    )
    histories, per_epoch = [], []

    def timed(train):
        def one_call():
            start = time.perf_counter()
            histories.append(train())
            per_epoch.append((time.perf_counter() - start) / config.epochs)
            run.attempted += config.epochs

        return one_call

    if run.tracer is None:
        run.for_seconds(timed(lambda: _train_losses(config, train_set)))
        run.op_s = statistics.median(per_epoch)
    else:
        reference = _train_losses(config, train_set)
        nodes, node_mb = _tape_size(config, train_set)
        with run.patched([(diffgraph, p, f"diffgraph.{p}") for p in PRIMITIVES]):
            run.for_seconds(timed(lambda: traced_train(run, config, train_set, len(histories))))
        for losses in histories:
            run.check(checks.check_same("traced vs mmvae.train per-epoch loss", losses, reference))
        _train_layers(run, per_epoch, nodes, node_mb)

    run.check(checks.check_history(histories))
    vae0 = mmvae.MultimodalVae(config)
    batch, noise = step_inputs(config, train_set, 0, 0, epoch_perm(config, train_set, 0))
    loss, terms = mmvae.elbo(vae0, batch, noise)
    reference = checks.elbo_reference(vae0.store.params, model_dict(config), batch, noise)
    run.check(checks.check_first_step(reference, loss, terms))


def _medians(tracer, idents):
    """median(name, value, parent) over `idents` of per-identifier totals."""

    def med(name, value="s", parent=None):
        out = statistics.median(
            spans.per_ident(tracer, name, value=value, parent=parent, idents=idents).values()
        )
        return int(out) if value in ("calls", "rows") else out

    return med


def _train_layers(run, per_epoch, nodes, node_mb):
    t, layers = run.tracer, run.layers
    med = _medians(t, sorted({i for n, i in zip(t.names, t.idents) if n == "train.step"}))
    layers["traced.op_s"] = statistics.median(per_epoch)
    layers["diffgraph.nodes_per_step"] = nodes
    layers["diffgraph.node_mb_per_step"] = node_mb
    for name in ("diffgraph.as_values", "diffgraph.adam_step", "diffgraph.backward", "mmvae.elbo"):
        layers[f"{name}.s"] = med(name)
    layers["mmvae.elbo.self_s"] = med("mmvae.elbo", "self_s")
    for p in PRIMITIVES:
        layers[f"diffgraph.{p}.calls"] = med(f"diffgraph.{p}", "calls")
        layers[f"diffgraph.{p}.s"] = med(f"diffgraph.{p}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_setup(run):
    config, eval_spec, train_set, test_set = _load_config(run, "toy5_mwb.json")
    brief = mmvae.config_with(config, batch_size=EVAL_TRAIN_BATCH, epochs=1)
    vae, _ = mmvae.train(brief, train_set.take(np.arange(EVAL_TRAIN_EXAMPLES)))
    return vae, eval_spec, train_set, test_set


def _evaluate(vae, eval_spec, train_set, test_set):
    return evaluation.evaluate_model(
        vae,
        train_set,
        test_set,
        importance_samples=eval_spec["importance_samples"],
        probe_samples=eval_spec["probe_samples"],
        coherence_samples=eval_spec["coherence_samples"],
        loglik_examples=eval_spec["loglik_examples"],
        seed=eval_spec["seed"],
    )


def eval_workload(run):
    vae, eval_spec, train_set, test_set = run.set_up(lambda: _eval_setup(run))
    reports, times = [], []

    def one_eval():
        if run.tracer:
            run.tracer.ident = len(reports)
        start = time.perf_counter()
        with run.span("evaluation.evaluate_model"):
            reports.append(_evaluate(vae, eval_spec, train_set, test_set))
        times.append(time.perf_counter() - start)
        run.attempted += 1

    targets = [
        (evaluation, name, f"evaluation.{name}")
        for name in ("fit_linear_probe", "latent_means", "test_log_likelihood", "coherence")
    ]
    targets += [
        (mmvae, "encode_arrays", "mmvae.encode_arrays", lambda v, batch: sum(map(len, batch))),
        (mmvae, "decode_array", "mmvae.decode_array", lambda v, m, z: len(z)),
        (mmvae, "aggregate_arrays", "mmvae.aggregate_arrays"),
    ]
    with run.patched(targets):
        run.for_seconds(one_eval)
    run.op_s = statistics.median(times)
    if run.tracer:
        _eval_layers(run, times, len(reports))

    for report in reports:
        run.check(checks.check_above_chance("latent accuracy", report.latent_accuracy.values()))
        run.check(checks.check_above_chance("coherence", report.coherence.values()))
        if vars(report) != vars(reports[0]):
            run.check("evaluate_model gave different reports for one model and seed")
    _check_linear_gaussian(run)
    _check_toy_loglik(run, vae, test_set, eval_spec)


def _eval_layers(run, times, count):
    layers = run.layers
    med = _medians(run.tracer, list(range(count)))
    layers["traced.op_s"] = statistics.median(times)
    for name in ("test_log_likelihood", "fit_linear_probe", "latent_means", "coherence"):
        layers[f"evaluation.{name}.s"] = med(f"evaluation.{name}")
    layers["evaluation.test_log_likelihood.self_s"] = med(
        "evaluation.test_log_likelihood", "self_s"
    )
    for name in ("encode_arrays", "decode_array", "aggregate_arrays"):
        layers[f"mmvae.{name}.s"] = med(f"mmvae.{name}")
        layers[f"mmvae.{name}.calls"] = med(f"mmvae.{name}", "calls")
    for name in ("encode_arrays", "decode_array"):
        layers[f"mmvae.{name}.rows"] = med(f"mmvae.{name}", "rows")


def _linear_gaussian_vae():
    """A conjugate model: linear Gaussian decoders, encoders near the posterior.

    z ~ N(0, I_2), x_m = z W_m + b_m + N(0, 0.75^2 I). Each encoder returns
    the exact posterior mean given its own modality and 1.3 times its
    posterior standard deviation, so the mwb proposal covers the posterior.
    """
    dims, d = (2, 3), 2
    config = mmvae.ModelConfig(
        num_modalities=2,
        input_dims=dims,
        latent_dim=d,
        hidden=(),
        likelihood="gaussian",
        aggregation="mwb",
        seed=5,
    )
    vae = mmvae.MultimodalVae(config)
    params = vae.store.params
    rng = np.random.default_rng(11)
    s2 = checks.GAUSSIAN_LIK_SIGMA**2
    for m, dim in enumerate(dims):
        w = rng.normal(0.0, 1.0, (d, dim))
        b = rng.normal(0.0, 0.5, dim)
        post_cov = np.linalg.inv(np.eye(d) + w @ w.T / s2)
        params[f"dec{m}.out_w"][...] = w
        params[f"dec{m}.out_b"][...] = b
        params[f"enc{m}.mu_w"][...] = w.T @ post_cov / s2
        params[f"enc{m}.mu_b"][...] = -b @ (w.T @ post_cov / s2)
        params[f"enc{m}.sigma_w"][...] = 0.0
        target = 1.3 * np.sqrt(np.diag(post_cov))
        params[f"enc{m}.sigma_b"][...] = target + np.log(-np.expm1(-target))
    return vae


def linear_gaussian_case(seed, samples=8192, examples=16):
    """(program estimate, closed-form marginal, standard error) on the conjugate model."""
    vae = _linear_gaussian_vae()
    params = vae.store.params
    w = np.concatenate([params["dec0.out_w"], params["dec1.out_w"]], axis=1)
    b = np.concatenate([params["dec0.out_b"], params["dec1.out_b"]])
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((examples, 2))
    x = z @ w + b + checks.GAUSSIAN_LIK_SIGMA * rng.standard_normal((examples, w.shape[1]))
    batch = [x[:, :2], x[:, 2:]]
    got = evaluation.test_log_likelihood(vae, batch, barycenter.SubsetIndex(0b11, 2), samples, seed)
    _, se = checks.importance_estimate(params, model_dict(vae.config), batch, samples, rng)
    want = checks.linear_gaussian_marginal(w, b, x)
    return got, want, float(np.sqrt(np.sum(se**2))) / len(se)


def toy_loglik_case(vae, batch, samples, seed):
    """(program estimate, own estimate, combined standard error), full subset.

    The own estimate uses LOGLIK_CHECK_SAMPLES independent draws; the
    program's standard error is scaled from it to `samples` draws.
    """
    m_count = vae.config.num_modalities
    full = barycenter.SubsetIndex((1 << m_count) - 1, m_count)
    got = evaluation.test_log_likelihood(vae, batch, full, samples, seed)
    ests, se = checks.importance_estimate(
        vae.store.params,
        model_dict(vae.config),
        batch,
        LOGLIK_CHECK_SAMPLES,
        np.random.default_rng(seed),
    )
    se_program = se * np.sqrt(LOGLIK_CHECK_SAMPLES / samples)
    return got, float(np.mean(ests)), float(np.sqrt(np.sum(se**2 + se_program**2))) / len(se)


def _check_linear_gaussian(run):
    got, want, se = linear_gaussian_case(run.seed)
    run.check(checks.check_estimate("linear-Gaussian log-likelihood", got, want, se))


def _check_toy_loglik(run, vae, test_set, eval_spec):
    batch = [mod[:LOGLIK_CHECK_EXAMPLES] for mod in test_set.modalities]
    got, want, se = toy_loglik_case(vae, batch, eval_spec["importance_samples"], run.seed)
    run.check(checks.check_estimate("toy full-subset log-likelihood", got, want, se))


# ---------------------------------------------------------------------------
# aggregation through the CLI
# ---------------------------------------------------------------------------


def _write_pool(run, workdir, make_round, rounds):
    """Generate `rounds` rounds of documents and write them under `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(run.seed)
    pool = []
    for r in range(rounds):
        docs = make_round(rng)
        for i, doc in enumerate(docs):
            doc.input = os.path.join(workdir, f"in{r}_{i}.json")
            doc.output = os.path.join(workdir, f"out{r}_{i}.json")
            with open(doc.input, "w", encoding="utf-8") as f:
                json.dump(doc.body, f)
        pool.append(docs)
    return pool


def aggregate_workload(run, kind, workdir):
    make_round, rounds = (
        (documents.diag_round, DIAG_POOL_ROUNDS)
        if kind == "diag"
        else (documents.full_round, FULL_POOL_ROUNDS)
    )
    pool = run.set_up(lambda: _write_pool(run, workdir, make_round, rounds))
    round_means = []
    first_output = {}
    info = {}

    def one_round():
        docs = pool[len(round_means) % len(pool)]
        spent = 0.0
        for doc in docs:
            ident = run.attempted
            info[ident] = doc
            if run.tracer:
                run.tracer.ident = ident
            argv = ["aggregate", "--input", doc.input, "--output", doc.output]
            argv += ["--method", doc.method]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with run.span("cli.main"):
                    code = cli.main(argv)
                spent += time.perf_counter() - start
            run.attempted += 1
            _judge(run, doc, code, err.getvalue(), first_output)
        round_means.append(spent / len(docs))

    targets = [(barycenter, m, f"barycenter.{m}") for m in (*AGG_METHODS.values(), "wb_full")]
    targets += [
        (owner, "sqrtm_psd", "linalg.sqrtm_psd") for owner in (barycenter, linalg, gaussian)
    ]
    targets += [(owner, "sym_eig", "linalg.sym_eig") for owner in (linalg, gaussian)]
    targets += [(gaussian.FullGaussian, "__post_init__", "gaussian.full_gaussian")]
    with run.patched(targets):
        run.for_seconds(one_round)
    run.op_s = statistics.median(round_means)
    if run.tracer:
        _aggregate_layers(run, info, round_means)


def _judge(run, doc, code, stderr, first_output):
    """Count a malformed document's outcome; check a valid one's result."""
    if doc.kind == "malformed":
        if not checks.rejected(code, stderr):
            run.failed += 1
        return
    if code != 0:
        run.check(f"{doc.name}: exit {code} on a valid document: {stderr.strip()}")
        return
    with open(doc.output, "rb") as f:
        raw = f.read()
    if doc.output in first_output:
        if raw != first_output[doc.output]:
            run.check(f"{doc.name}: a rerun wrote a different result")
        return
    first_output[doc.output] = raw
    result = json.loads(raw)
    if doc.kind == "diag":
        run.check(checks.check_diag(doc.body, doc.method, result))
    else:
        commuting = None
        if doc.commuting is not None:
            commuting = checks.commuting_barycenter(*doc.commuting)
        run.check(checks.check_full(doc.body, result, commuting))


def _aggregate_layers(run, info, round_means):
    t, layers = run.tracer, run.layers
    valid = [i for i, doc in info.items() if doc.kind != "malformed"]
    full = [i for i in valid if info[i].kind == "full"]
    layers["traced.op_s"] = statistics.median(round_means)
    layers["cli.main.self_s"] = spans.median_or_zero(
        spans.per_ident(t, "cli.main", value="self_s", idents=valid).values()
    )
    for method, name in AGG_METHODS.items():
        docs = [i for i in valid if info[i].kind == "diag" and info[i].method == method]
        layers[f"barycenter.{name}.s"] = spans.median_or_zero(
            spans.per_ident(t, f"barycenter.{name}", parent="cli.main", idents=docs).values()
        )
    if not full:
        return
    med = _medians(t, full)
    layers["barycenter.wb_full.s"] = med("barycenter.wb_full")
    maps = spans.per_ident(
        t, "linalg.sqrtm_psd", value="calls", parent="barycenter.wb_full", idents=full
    )
    layers["barycenter.wb_full.iterations"] = int(
        statistics.median(maps[i] // (info[i].members + 1) for i in full)
    )
    for name in ("linalg.sym_eig", "linalg.sqrtm_psd"):
        layers[f"{name}.s"] = med(name)
        layers[f"{name}.calls"] = med(name, "calls")
    layers["gaussian.full_gaussian.s"] = med("gaussian.full_gaussian")


WORKLOADS = {
    "train-wb": lambda run, workdir: train_workload(run, "toy5_wb.json"),
    "train-mwb": lambda run, workdir: train_workload(run, "toy5_mwb.json"),
    "eval-mwb": lambda run, workdir: eval_workload(run),
    "aggregate-diag": lambda run, workdir: aggregate_workload(run, "diag", workdir),
    "aggregate-full": lambda run, workdir: aggregate_workload(run, "full", workdir),
}
