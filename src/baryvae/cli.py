"""Command-line frontend: aggregate posteriors, train, evaluate.

File formats:
  * configs and checkpoints are JSON with stable key order;
  * metrics and report tables are CSV with a header row;
  * floats are serialized in shortest round-trip form, so reruns with the
    same seed produce byte-identical outputs.

Exit codes: 0 success, 2 input/config error, 3 numeric failure, 4 checkpoint
format/version error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import barycenter as bc
from . import data as datamod
from . import evaluation, mmvae
from .errors import CheckpointFormatError, ConfigError, IdxFormatError, NumericError
from .gaussian import DiagGaussian, FullGaussian

CHECKPOINT_VERSION = 1
OUT_ENV_VAR = "BARYVAE_OUT"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_FORMAT = 4

# Field kinds of the config sections; `_section` checks each present field.
_INT = "an integer"
_SEED = "an integer >= 0"
_NUMBER = "a finite number"
_TEXT = "a string"
_INTS = "a list of integers"
_IDS = "a list of integers or null"

_MODEL_FIELDS = {
    "num_modalities": _INT,
    "input_dims": _INTS,
    "latent_dim": _INT,
    "hidden": _INTS,
    "likelihood": _TEXT,
    "aggregation": _TEXT,
    "beta": _NUMBER,
    "learning_rate": _NUMBER,
    "batch_size": _INT,
    "epochs": _INT,
    "seed": _SEED,
}
_TOY_FIELDS = {
    "num_modalities": _INT,
    "examples_per_class": _INT,
    "classes": _INT,
    "resolution": _INT,
    "background_ids": _IDS,
    "noise_level": _NUMBER,
    "seed": _SEED,
}
_IDX_FIELDS = {"images": _TEXT, "labels": _TEXT}
_RNG_FIELDS = {"seed": _SEED, "adam_step": _SEED}
_SPLIT_FIELDS = {"train_fraction": _NUMBER, "seed": _SEED}
_SPLIT_DEFAULTS = {"train_fraction": 0.8, "seed": 0}
_EVAL_COUNTS = ("importance_samples", "probe_samples", "coherence_samples", "loglik_examples")
_EVAL_FIELDS = {**{key: _INT for key in _EVAL_COUNTS}, "seed": _SEED}
# The eval settings' defaults, stated here only: `evaluation.evaluate_model`
# takes all five as required keywords.
_EVAL_DEFAULTS = {
    "importance_samples": 512, "probe_samples": 500, "coherence_samples": 200,
    "loglik_examples": 64, "seed": 0,
}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}' in {where}")


# Integers may size arrays, so they must lie in numpy's signed 64-bit range,
# unless not `bounded`: seeds and the fields in _ANY_SIZE size nothing.
_INT64, _ANY_SIZE = range(-(2**63), 2**63), ("epochs",)


def _shown(value) -> str:
    """repr(value), but an integer beyond _INT64 by its length in digits."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_shown, value)) + "]"
    if isinstance(value, int) and value not in _INT64:
        return f"a {len(str(abs(value)))}-digit {'negative ' * (value < 0)}integer"
    return repr(value)


def _is_kind(value, kind: str, bounded: bool = True) -> bool:
    if kind == _IDS:
        return value is None or _is_kind(value, _INTS, bounded)
    if kind == _INTS:
        return isinstance(value, list) and all(_is_kind(v, _INT, bounded) for v in value)
    if kind == _TEXT:
        return isinstance(value, str)
    if kind == _SEED:
        return _is_kind(value, _INT, bounded=False) and value >= 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind == _INT:
        return isinstance(value, int) and (value in _INT64 or not bounded)
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _section(section, fields: dict, where: str) -> dict:
    """A copy of `section`, checked to be an object of known fields of their kinds."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(section, fields, where)
    for key, value in section.items():
        kind = fields[key]
        if not _is_kind(value, kind, bounded=key not in _ANY_SIZE):
            if _is_kind(value, kind, bounded=False):  # of its kind, but too large
                kind += " in the signed 64-bit range"
            raise ConfigError(f"field '{key}' in {where} must be {kind}, got {_shown(value)}")
    return dict(section)


@dataclass
class RunConfig:
    model: mmvae.ModelConfig
    data_spec: dict
    split_spec: dict
    eval_spec: dict

    def document(self) -> dict:
        return {
            "model": asdict(self.model),
            "data": self.data_spec,
            "split": self.split_spec,
            "eval": self.eval_spec,
        }


def build_dataset(data_spec: dict) -> datamod.MultimodalDataset:
    if "toy" in data_spec:
        toy = _section(data_spec["toy"], _TOY_FIELDS, "data.toy section")
        for required in ("num_modalities", "examples_per_class"):
            if required not in toy:
                raise ConfigError(f"missing required field 'data.toy.{required}'")
        try:
            config = datamod.ToyConfig(**toy)
        except ValueError as err:
            raise ConfigError(f"invalid data.toy section: {err}") from err
        return datamod.gen_toy(config)
    if "idx" in data_spec:
        idx = _section(data_spec["idx"], _IDX_FIELDS, "data.idx section")
        for required in ("images", "labels"):
            if required not in idx:
                raise ConfigError(f"missing required field 'data.idx.{required}'")
        return datamod.load_idx(idx["images"], idx["labels"])
    raise ConfigError("data section must contain either 'toy' or 'idx'")


def _check_document(doc) -> tuple:
    """Check a config document's shape; returns (model fields, split spec, eval spec).

    Every section must be an object of known fields of their kinds, and the
    eval counts must be >= 1. The data section is only checked to be an
    object naming known sources: reading them is `build_dataset`'s job.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, {"model", "data", "split", "eval"}, "config")
    if "data" not in doc:
        raise ConfigError("missing required field 'data'")
    if not isinstance(doc["data"], dict):
        raise ConfigError("data section must be an object")
    _reject_unknown(doc["data"], {"toy", "idx"}, "data section")
    model = _section(doc.get("model", {}), _MODEL_FIELDS, "model section")
    split = _section(doc.get("split", {}), _SPLIT_FIELDS, "split section")
    evals = _section(doc.get("eval", {}), _EVAL_FIELDS, "eval section")
    split_spec, eval_spec = {**_SPLIT_DEFAULTS, **split}, {**_EVAL_DEFAULTS, **evals}
    for key in _EVAL_COUNTS:
        if eval_spec[key] < 1:
            raise ConfigError(
                f"field '{key}' in eval section must be >= 1, got {eval_spec[key]!r}"
            )
    return model, split_spec, eval_spec


def parse_run_config(doc, seed_override: int = None) -> tuple:
    """Validate the config document; returns (RunConfig, dataset)."""
    model, split_spec, eval_spec = _check_document(doc)
    data_spec = doc["data"]
    dataset = build_dataset(data_spec)

    derived_m, derived_dims = dataset.num_modalities, dataset.dims
    if model.get("num_modalities", derived_m) != derived_m:
        raise ConfigError(
            f"model.num_modalities {model['num_modalities']} does not match dataset ({derived_m})"
        )
    if "input_dims" in model and list(model["input_dims"]) != derived_dims:
        raise ConfigError(
            f"model.input_dims {model['input_dims']} does not match dataset {derived_dims}"
        )
    model["num_modalities"] = derived_m
    model["input_dims"] = derived_dims
    if seed_override is not None:
        if not _is_kind(seed_override, _SEED):
            raise ConfigError(f"--seed must be {_SEED}, got {seed_override!r}")
        model["seed"] = seed_override
    try:
        model_cfg = mmvae.ModelConfig(**model)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid model section: {err}") from err
    return RunConfig(model_cfg, data_spec, split_spec, eval_spec), dataset


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _json_text(obj, encode, indent: str = "\n") -> str:
    """`obj` as json.dumps(obj, indent=2) writes it, built over `encode`, a
    compact C encoder, so that a list of numbers takes one call."""
    if not (isinstance(obj, (list, tuple, dict)) and obj):
        return encode(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        # a non-string key is converted as json converts it
        keys = (encode(k) if isinstance(k, str) else encode({k: 0})[1:-4] for k in obj)
        items = (k + ": " + _json_text(v, encode, inner) for k, v in zip(keys, obj.values()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(obj[0], (str, list, tuple, dict)):
        # numbers hold no '"', '[' or '{', nor the ", " between items
        text = encode(obj)[1:-1]
        if not ('"' in text or "[" in text or "{" in text):
            return "[" + inner + text.replace(", ", "," + inner) + indent + "]"
    items = (_json_text(x, encode, inner) for x in obj)
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _write_json(path: str, obj, allow_nan: bool = True) -> None:
    """Write `obj` as json.dumps(obj, indent=2) does; with allow_nan=False,
    NaN or Infinity raises ValueError before the file is opened."""
    text = _json_text(obj, json.JSONEncoder(allow_nan=allow_nan).encode)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _write_csv(path: str, header, rows) -> None:
    """Rows of floats, ints and strings: a float's str is its round-trip repr."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")


def save_checkpoint(path: str, run_config: RunConfig, vae: mmvae.MultimodalVae) -> None:
    params = {
        name: {
            "shape": list(arr.shape),
            "data": arr.reshape(-1).tolist(),
        }
        for name, arr in vae.store.params.items()
    }
    _write_json(
        path,
        {
            "format_version": CHECKPOINT_VERSION,
            "config": run_config.document(),
            "params": params,
            "rng_state": {"seed": vae.config.seed, "adam_step": vae.store.step},
        },
    )


def _entry(section: dict, key: str, where: str, kind: type = object):
    """section[key], checked to be present and, for kind dict, an object."""
    if key not in section:
        raise ValueError(f"missing field '{key}' in {where}")
    if not isinstance(section[key], kind):
        raise ValueError(f"field '{key}' in {where} must be an object")
    return section[key]


def _parameter(entry: dict, name: str, shape: tuple) -> np.ndarray:
    """Parameter `name`'s array of `shape`, from its checkpoint entry."""
    where = f"parameter {name}"
    given, data = (_entry(entry, key, where) for key in ("shape", "data"))
    _reject_unknown(entry, {"shape", "data"}, where)
    if not _is_kind(given, _INTS) or given != list(shape):
        text = _shown(given)  # a wrong shape may be long: show its start
        text = text if len(text) <= 40 else text[:36] + " ..."
        raise ValueError(f"{where} must have shape {list(shape)}, got {text}")
    data = _finite_array(data, where)
    if data.shape != (math.prod(shape),):
        raise ValueError(f"{where} must hold a flat list of {math.prod(shape)} numbers")
    return data.reshape(shape)


def load_checkpoint(path: str):
    """Returns (RunConfig document, MultimodalVae). Raises CheckpointFormatError."""
    try:
        doc = _load_json(path)
    except (OSError, ValueError) as err:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(doc, dict):
        raise CheckpointFormatError(
            f"checkpoint {path} must hold a JSON object, not a {type(doc).__name__}"
        )
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format_version {doc.get('format_version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        model, split_spec, eval_spec = _check_document(doc.get("config"))
    except ConfigError as err:
        raise CheckpointFormatError(f"corrupt checkpoint {path}: config: {err}") from err
    try:
        _reject_unknown(doc, {"format_version", "config", "params", "rng_state"}, "checkpoint")
        for key in ("num_modalities", "input_dims"):
            _entry(model, key, "config model section")
        model_cfg = mmvae.ModelConfig(**model)
        vae = mmvae.MultimodalVae(model_cfg)
        params = _entry(doc, "params", "checkpoint", dict)
        for name, like in vae.store.params.items():
            entry = _entry(params, name, "params", dict)
            vae.store.params[name] = _parameter(entry, name, like.shape)
        _reject_unknown(params, vae.store.params, "params")
        rng_state = _section(_entry(doc, "rng_state", "checkpoint"), _RNG_FIELDS, "rng_state")
        seed, vae.store.step = (_entry(rng_state, key, "rng_state") for key in _RNG_FIELDS)
        if seed != model_cfg.seed:
            raise ValueError(
                f"rng_state.seed must be the model seed {model_cfg.seed}, got {_shown(seed)}"
            )
    except (MemoryError, ValueError) as err:  # a model too large to allocate is its fault
        raise CheckpointFormatError(f"corrupt checkpoint {path}: {err}") from err
    return RunConfig(model_cfg, doc["config"]["data"], split_spec, eval_spec), vae


# ---------------------------------------------------------------------------
# posterior document schema for `aggregate`
# ---------------------------------------------------------------------------


def _text_or_bool(value):
    """The first string or boolean in a JSON value, nested lists searched; else None."""
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, list) and not {str, bool, list}.isdisjoint(map(type, value)):
        for item in value:
            found = _text_or_bool(item)
            if found is not None:
                return found
    return None


def _finite_array(value, where: str) -> np.ndarray:
    """`value` as a float64 array; strings and booleans, which numpy would
    convert, and NaN, Infinity and integers beyond the float range, which
    json parses, are rejected."""
    bad = _text_or_bool(value)
    if bad is not None:
        raise ConfigError(f"{where} must hold JSON numbers only, got {json.dumps(bad)}")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{where} must be finite, got a number beyond the float range") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where} must be finite, got NaN or Infinity")
    return arr


# A posterior document's spread key and the type it builds; "sigma" is tried
# first, so an entry with both keys is rejected for its unknown 'cov'.
_POSTERIOR_KINDS = {"sigma": DiagGaussian, "cov": FullGaussian}


def _parse_posteriors(doc):
    if not isinstance(doc, dict) or "posteriors" not in doc:
        raise ConfigError("input document must contain a 'posteriors' list")
    entries = doc["posteriors"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'posteriors' must be a non-empty list")
    kinds = set()
    posteriors = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "mean" not in entry:
            raise ConfigError(f"posteriors[{i}] must be an object with a 'mean'")
        key = next((k for k in _POSTERIOR_KINDS if k in entry), None)
        if key is None:
            raise ConfigError(f"posteriors[{i}] needs 'sigma' or 'cov'")
        _reject_unknown(entry, {"mean", key}, f"posteriors[{i}]")
        kinds.add(key)
        try:
            posteriors.append(
                _POSTERIOR_KINDS[key](
                    _finite_array(entry["mean"], "mean"), _finite_array(entry[key], key)
                )
            )
        except ValueError as err:
            raise ConfigError(f"posteriors[{i}]: {err}") from err
    if len(kinds) != 1:
        raise ConfigError("posteriors must be all diagonal or all full-covariance")
    weights = doc.get("weights")
    _reject_unknown(doc, {"posteriors", "weights"}, "input document")
    return posteriors, weights


def cmd_aggregate(args) -> int:
    doc = _load_json(args.input)
    posteriors, weights = _parse_posteriors(doc)
    if args.weights is not None:
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError as err:
            raise ConfigError(
                f"--weights must be comma-separated numbers, got {args.weights!r}"
            ) from err
    if weights is not None and args.method not in bc.WEIGHTED_METHODS:
        raise ConfigError(
            f"method {args.method!r} does not use weights; "
            f"only {' and '.join(bc.WEIGHTED_METHODS)} do"
        )
    if weights is None:
        family = bc.WeightedFamily.uniform(posteriors)
    else:
        weights = _finite_array(weights, "weights")
        try:
            family = bc.WeightedFamily(tuple(posteriors), weights)
        except ValueError as err:
            raise ConfigError(f"invalid weights: {err}") from err

    method = args.method
    full = isinstance(posteriors[0], FullGaussian)
    if full and method != "wb":
        raise ConfigError(
            f"method {method!r} supports diagonal posteriors only; "
            "full-covariance inputs support 'wb'"
        )
    if full:
        result = bc.wb_full(family)
        doc = {"method": method, "mean": result.mean.tolist(), "cov": result.cov.tolist()}
    else:
        weights, mean, sigma = bc.aggregate(family, method)
        parts = [{"mean": m, "sigma": s} for m, s in zip(mean.tolist(), sigma.tolist())]
        if method in ("poe", "wb"):
            doc = {"method": method, **parts[0]}
        else:
            doc = {"method": method, "weights": weights.tolist(), "components": parts}
    try:
        _write_json(args.output, doc, allow_nan=False)
    except ValueError as err:
        raise NumericError(
            f"{method} aggregation overflowed: the result is not finite; nothing written"
        ) from err
    return EXIT_OK


def _resolve_out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "baryvae_out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_train(args) -> int:
    doc = _load_json(args.config)
    run_config, dataset = parse_run_config(doc, seed_override=args.seed)
    train_set, _ = datamod.split(dataset, **run_config.split_spec)
    vae, history = mmvae.train(run_config.model, train_set)
    out = _resolve_out_dir(args)
    save_checkpoint(os.path.join(out, "checkpoint.json"), run_config, vae)
    header = ["epoch", "loss"]
    header += [f"recon_mod{m}" for m in range(run_config.model.num_modalities)]
    header += ["kl"]
    rows = [[row[key] for key in header] for row in history]
    _write_csv(os.path.join(out, "metrics.csv"), header, rows)
    return EXIT_OK


def cmd_eval(args) -> int:
    run_config, vae = load_checkpoint(args.checkpoint)
    if args.config is not None:
        doc = _load_json(args.config)
        override, dataset = parse_run_config(doc)
        # The model is the checkpoint's: an override may restate its fields, not change them.
        for key in doc.get("model", {}):
            given, saved = getattr(override.model, key), getattr(run_config.model, key)
            if given != saved:
                raise ConfigError(
                    f"field '{key}' in model section is {json.dumps(given)}, "
                    f"but the checkpoint's model has {json.dumps(saved)}"
                )
        run_config = RunConfig(
            run_config.model, override.data_spec, override.split_spec, override.eval_spec
        )
    try:
        if args.config is None:
            dataset = build_dataset(run_config.data_spec)
        if dataset.dims != list(vae.config.input_dims):
            raise ConfigError(
                f"dataset input dims {dataset.dims} do not match the checkpoint's model "
                f"{list(vae.config.input_dims)}"
            )
        train_set, test_set = datamod.split(dataset, **run_config.split_spec)
    except ValueError as err:
        # without an override, data and split settings at fault are the checkpoint's
        if args.config is not None or isinstance(err, IdxFormatError):
            raise
        raise CheckpointFormatError(f"corrupt checkpoint {args.checkpoint}: config: {err}") from err
    report = evaluation.evaluate_model(vae, train_set, test_set, **run_config.eval_spec)
    out = _resolve_out_dir(args)
    samples = run_config.eval_spec["importance_samples"]
    m_count = vae.config.num_modalities
    names = {s.mask: "+".join(map(str, s.members())) for s in bc.subsets(m_count)}
    counts = report.probe_train_counts
    _write_json(
        os.path.join(out, "report.json"),
        {
            "importance_samples": samples,
            "latent_accuracy": {names[mask]: acc for mask, acc in report.latent_accuracy.items()},
            "coherence": {
                f"{names[mask]}->{target}": value
                for (mask, target), value in report.coherence.items()
            },
            "log_likelihood": {names[mask]: ll for mask, ll in report.log_likelihood.items()},
            "probe_train_counts": {names[mask]: n for mask, n in counts.items()},
        },
    )
    _write_csv(
        os.path.join(out, "accuracy.csv"),
        ["subset", "accuracy", "probe_train_count"],
        [[names[mask], acc, counts[mask]] for mask, acc in report.latent_accuracy.items()],
    )
    _write_csv(
        os.path.join(out, "coherence.csv"),
        ["source_subset", "target_modality", "coherence"],
        [[names[mask], target, value] for (mask, target), value in report.coherence.items()],
    )
    _write_csv(
        os.path.join(out, "loglik.csv"),
        ["subset", "log_likelihood", "importance_samples"],
        [[names[mask], ll, samples] for mask, ll in report.log_likelihood.items()],
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="baryvae",
        description="Barycentric posterior aggregation, training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_agg = sub.add_parser("aggregate", help="aggregate posteriors from a JSON file")
    p_agg.add_argument("--input", required=True, help="input posterior JSON")
    p_agg.add_argument("--output", required=True, help="output posterior JSON")
    p_agg.add_argument("--method", required=True, choices=bc.METHODS)
    p_agg.add_argument("--weights", default=None, help="comma-separated weights")
    p_agg.set_defaults(func=cmd_aggregate)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV_VAR})")
    p_train.add_argument("--seed", type=int, default=None, help="override model seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", default=None, help="optional config override")
    p_eval.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV_VAR})")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow on the way to a result is no warning: a non-finite result
        # raises NumericError (exit 3), and a finite one is usable.
        with np.errstate(all="ignore"):
            return args.func(args)
    except CheckpointFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:  # sizes in the config or data that cannot be allocated
        print(f"error: out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
