"""Exception hierarchy shared by all modules, and the strict constructor
that turns a JSON object into a config dataclass.

CLI exit-code mapping: ConfigError-family -> 2, DataError-family -> 3,
DivergenceError -> 4.
"""

import types
import typing


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


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: int (not bool), float
    (int too), str, bool, a config class, ``tuple[X, ...]`` (a list of X)
    or a ``|`` union such as ``X | None``."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, typing.get_args(hint)[0])
                                                        for v in value)
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))


def config_from_dict(cls, doc: dict, what: str):
    """``cls(**doc)`` for a config dataclass: a key `cls` has no field for,
    or a value that does not fit its field's annotation, raises ConfigError,
    and an omitted key takes the field's default."""
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} config fields: {sorted(unknown)}")
    for name, hint in typing.get_type_hints(cls).items():
        if name in doc and not _fits(doc[name], hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{what}.{name} must be {expected}, got {doc[name]!r}")
    return cls(**doc)
