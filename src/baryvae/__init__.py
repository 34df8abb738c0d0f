"""Barycentric posterior aggregation for multimodal VAEs.

Gaussian aggregation through a common barycenter lens (product / mixture of
experts, Bures-Wasserstein barycenters and their powerset mixtures), a small
dependency-free autodiff trainer, a synthetic multimodal dataset, and the
standard evaluation protocols (latent probe, coherence, log-likelihood).
"""

from .barycenter import (
    SubsetIndex,
    barycenter_objective,
    moe,
    mopoe,
    mwb,
    poe,
    subsets,
    wb_diag,
    wb_full,
)
from .data import MultimodalDataset, ToyConfig, gen_toy, load_idx, split
from .diffgraph import ParamStore, Value, adam_step
from .errors import (
    CheckpointFormatError,
    ConfigError,
    IdxFormatError,
    NotPsdError,
    NumericError,
)
from .evaluation import (
    EvalReport,
    LinearProbe,
    coherence,
    evaluate_model,
    fit_linear_probe,
    latent_accuracy,
    test_log_likelihood,
)
from .gaussian import (
    DiagGaussian,
    FullGaussian,
    WeightedFamily,
    kl_diag,
    w2sq_diag,
)
from .linalg import sqrtm_psd, sym_eig
from .mmvae import (
    ModelConfig,
    MultimodalVae,
    conditional_generate,
    elbo,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointFormatError",
    "ConfigError",
    "DiagGaussian",
    "EvalReport",
    "FullGaussian",
    "IdxFormatError",
    "LinearProbe",
    "ModelConfig",
    "MultimodalDataset",
    "MultimodalVae",
    "NotPsdError",
    "NumericError",
    "ParamStore",
    "SubsetIndex",
    "ToyConfig",
    "Value",
    "WeightedFamily",
    "adam_step",
    "barycenter_objective",
    "coherence",
    "conditional_generate",
    "elbo",
    "evaluate_model",
    "fit_linear_probe",
    "gen_toy",
    "kl_diag",
    "latent_accuracy",
    "load_idx",
    "moe",
    "mopoe",
    "mwb",
    "poe",
    "split",
    "sqrtm_psd",
    "subsets",
    "sym_eig",
    "test_log_likelihood",
    "train",
    "w2sq_diag",
    "wb_diag",
    "wb_full",
]
