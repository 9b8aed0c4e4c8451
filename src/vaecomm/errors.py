"""Exception types shared across the package, and the integer argument check."""

import numpy as np


class VaecommError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(VaecommError, ValueError):
    """Operands or parameters with incompatible shapes."""


class DomainError(VaecommError, ValueError):
    """Value outside the mathematical domain of an operation."""


class DegenerateSignalError(VaecommError, ValueError):
    """Signal power too small to normalize."""


class ConfigError(VaecommError, ValueError):
    """Invalid system or run configuration."""


class CheckpointError(VaecommError, ValueError):
    """Checkpoint file missing, malformed, or inconsistent."""


class TrainingDivergedError(VaecommError, RuntimeError):
    """Non-finite values appeared during training."""


class NonDeterministicFunctionError(VaecommError, RuntimeError):
    """A function expected to be deterministic returned differing values."""


def check_integer(name: str, value, least: int | None = 1) -> int:
    """value as a Python int: a Python or numpy integer, not bool (a float is not
    truncated), and >= least unless least is None; else a DomainError names it."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound} (Python or numpy integers, "
                          f"not bool), got {value!r}")
    return int(value)
