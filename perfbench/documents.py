"""Posterior documents for the `aggregate` workloads, made from the workload seed.

A round is a fixed list of documents; every run attempts whole rounds, so the
share of documents that fail is the same in every run whatever the seed.

Diagonal rounds hold five experts of dimension 16 (the shipped models' latent
size and modality count) for each of the five methods, plus malformed
documents of fixed content.

Full-covariance documents are fixed templates turned by one seeded rotation
and given seeded means. `wb_full` commutes with a common rotation, so each
template takes the same number of fixed-point iterations on every seed while
the matrices the program sees change with it.
"""

from __future__ import annotations

import math

import numpy as np

METHODS = ("poe", "moe", "wb", "mopoe", "mwb")
DIAG_EXPERTS = 5
DIAG_DIM = 16
DIAG_PER_METHOD = 8
TEMPLATE_SEED = 20250101

# Malformed documents: (name, method, document, fails today). The first group
# is rejected with exit 2 already. The last two hold NaN and Infinity, which
# Python's json module parses; today they exit 0 (robustness defect 3 in
# ROADMAP.md), so they count as failed until the CLI rejects them.
_TWO = [{"mean": [0.0, 1.0], "sigma": [1.0, 0.5]}, {"mean": [2.0, 0.0], "sigma": [1.0, 2.0]}]
MALFORMED_DIAG = [
    ("empty", "wb", {"posteriors": []}, False),
    ("length_mismatch", "poe", {"posteriors": [{"mean": [0.0, 1.0], "sigma": [1.0]}]}, False),
    ("dims_differ", "mwb", {"posteriors": [_TWO[0], {"mean": [1.0], "sigma": [1.0]}]}, False),
    ("unknown_key", "moe", {"posteriors": _TWO, "extra": 1}, False),
    ("bad_weights", "wb", {"posteriors": _TWO, "weights": [0.5, 0.4]}, False),
    (
        "mixed_kinds",
        "wb",
        {"posteriors": [_TWO[0], {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}]},
        False,
    ),
    ("nan_mean", "wb", {"posteriors": [{"mean": [math.nan, 0.0], "sigma": [1.0, 1.0]}, _TWO[1]]},
     True),
    ("inf_sigma", "poe", {"posteriors": [{"mean": [0.0, 1.0], "sigma": [math.inf, 1.0]}, _TWO[1]]},
     True),
]
MALFORMED_FULL = [
    (
        "not_spd",
        "wb",
        {"posteriors": [{"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}] * 2},
        False,
    ),
    (
        "full_with_mwb",
        "mwb",
        {"posteriors": [{"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}] * 2},
        False,
    ),
]


class Doc:
    """One `aggregate` call: its document, method and what a correct run gives."""

    def __init__(self, name, method, body, kind, fails_today=False, commuting=None):
        self.name = name
        self.method = method
        self.body = body
        self.kind = kind  # "diag", "full" or "malformed"
        self.fails_today = fails_today
        self.commuting = commuting  # (rotation, eigenvalues, weights) of commuting members
        self.input = None  # file paths, set when the document is written
        self.output = None

    @property
    def members(self):
        return len(self.body["posteriors"])


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _simplex(rng, m):
    w = rng.uniform(0.5, 1.5, m)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w


def diag_round(rng):
    docs = []
    for method in METHODS:
        for i in range(DIAG_PER_METHOD):
            mus = rng.normal(0.0, 2.0, (DIAG_EXPERTS, DIAG_DIM))
            sigmas = rng.uniform(0.2, 2.0, (DIAG_EXPERTS, DIAG_DIM))
            body = {
                "posteriors": [
                    {"mean": m.tolist(), "sigma": s.tolist()} for m, s in zip(mus, sigmas)
                ]
            }
            if method in ("moe", "wb") and i % 2:
                body["weights"] = _simplex(rng, DIAG_EXPERTS).tolist()
            docs.append(Doc(f"{method}{i}", method, body, "diag"))
    docs += [Doc(n, m, b, "malformed", f) for n, m, b, f in MALFORMED_DIAG]
    return docs


def _templates():
    """(name, dim, member covariances, weights or None), fixed for every seed."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    out = []
    for name, d, m, weighted in (("full16x2", 16, 2, False), ("full8x4", 8, 4, True)):
        covs = []
        for _ in range(m):
            q = _rotation(rng, d)
            covs.append((q * rng.uniform(0.3, 3.0, d)) @ q.T)
        out.append((name, d, covs, _simplex(rng, m) if weighted else None))
    return out, rng.uniform(0.3, 3.0, (3, 8))


_GENERIC, _COMMUTING_EIGS = _templates()


def full_round(rng):
    docs = []
    for name, d, covs, weights in _GENERIC:
        q = _rotation(rng, d)
        body = {
            "posteriors": [
                {"mean": rng.normal(0.0, 2.0, d).tolist(), "cov": (q @ c @ q.T).tolist()}
                for c in covs
            ]
        }
        if weights is not None:
            body["weights"] = weights.tolist()
        docs.append(Doc(name, "wb", body, "full"))
    d = _COMMUTING_EIGS.shape[1]
    q = _rotation(rng, d)
    covs = [(q * e) @ q.T for e in _COMMUTING_EIGS]
    body = {
        "posteriors": [
            {"mean": rng.normal(0.0, 2.0, d).tolist(), "cov": c.tolist()} for c in covs
        ]
    }
    lams = np.full(len(covs), 1.0 / len(covs))
    docs.append(Doc("commuting8x3", "wb", body, "full", commuting=(q, _COMMUTING_EIGS, lams)))
    docs += [Doc(n, m, b, "malformed", f) for n, m, b, f in MALFORMED_FULL]
    return docs
