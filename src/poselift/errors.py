"""Exception hierarchy shared by all modules, and the strict constructor
that turns a JSON object into a config dataclass.

CLI exit-code mapping: ConfigError-family -> 2, DataError-family -> 3,
DivergenceError -> 4.
"""


class PoseLiftError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PoseLiftError):
    """Invalid configuration value or combination."""


class ShapeError(ConfigError):
    """Array shapes incompatible with the requested operation."""


class GraphStructureError(ConfigError):
    """Skeleton graph violates a structural requirement (e.g. disconnected)."""


class DataError(PoseLiftError):
    """Problem with an input file or generated data."""


class FormatError(DataError):
    """File does not follow its format: wrong magic bytes or extra bytes."""


class TruncatedFileError(DataError):
    """File ends before the payload promised by its header."""


class ShapeOverflowError(DataError):
    """Header declares dimensions that are zero or implausibly large."""


class ProjectionError(DataError):
    """A joint is at or behind the camera plane."""


class DivergenceError(PoseLiftError):
    """A numeric quantity became non-finite."""


def config_from_dict(cls, doc: dict, what: str):
    """``cls(**doc)`` for a config dataclass: a key `cls` has no field for
    raises ConfigError, and an omitted key takes the field's default."""
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} config fields: {sorted(unknown)}")
    return cls(**doc)
