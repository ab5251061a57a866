"""Exception types shared across the package, and the check that names a
config record's unknown and missing keys."""


class OcoBoostError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OcoBoostError, ValueError):
    """A point, context, or loss has the wrong dimension for the operation."""


class NonFiniteInput(OcoBoostError, ValueError):
    """An input contains NaN or infinite entries."""


class ConfigError(OcoBoostError, ValueError):
    """A configuration record is invalid or incomplete."""


class DataError(OcoBoostError, ValueError):
    """A dataset file is missing, malformed, or unusable."""


class ProtocolError(OcoBoostError, RuntimeError):
    """Predict/update (or step/feedback) calls arrived out of order."""


class StageError(OcoBoostError, RuntimeError):
    """A weak optimizer failed during a boosting stage."""

    def __init__(self, stage, message):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def check_record(record: dict, required, optional, what: str) -> None:
    """Raise ``ConfigError`` naming a record's unknown keys, or else its
    missing required ones. Each required entry is a tuple of alternative
    names, the first of which is reported."""
    unknown = sorted(set(record) - set(optional).union(*required))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}")
    missing = [names[0] for names in required
               if not any(name in record for name in names)]
    if missing:
        raise ConfigError(f"{what} is missing {missing}")
