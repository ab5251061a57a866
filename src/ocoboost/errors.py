"""Exception types shared across the package, and two shared settings checks."""

import math


class OcoBoostError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OcoBoostError, ValueError):
    """A point, context, or loss has the wrong dimension for the operation."""


class NonFiniteInput(OcoBoostError, ValueError):
    """An input contains NaN or infinite entries."""


class ConfigError(OcoBoostError, ValueError):
    """A configuration setting is invalid or incomplete."""


class DataError(OcoBoostError, ValueError):
    """A dataset file is missing, malformed, or unusable."""


class ProtocolError(OcoBoostError, RuntimeError):
    """Predict/update (or step/feedback) calls arrived out of order."""


class StageError(OcoBoostError, RuntimeError):
    """A weak optimizer failed during a boosting stage."""

    def __init__(self, stage, message):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def check_gamma(gamma) -> float:
    """``gamma`` as a float; ``ConfigError`` unless it lies in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError("gamma must be in (0, 1]")
    return float(gamma)


def check_positive(name: str, value) -> float:
    """``value`` as a float; ``ConfigError`` unless 0 < value < inf."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return float(value)
