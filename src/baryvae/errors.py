"""Shared exception types."""


class NumericError(RuntimeError):
    """An iterative or floating-point computation failed to produce a usable result.

    Carries optional context (residual, iteration count, epoch/step) in `details`.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class NotPsdError(ValueError):
    """Input matrix has an eigenvalue below the PSD tolerance."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class IdxFormatError(ValueError):
    """An IDX file failed to parse (bad magic, truncation, or count mismatch)."""


class ConfigError(ValueError):
    """A run configuration document is invalid."""


class CheckpointFormatError(ValueError):
    """A checkpoint file has an unsupported or corrupted format version."""
