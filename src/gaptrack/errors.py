"""Exception types shared across the package, and the integer check of its settings."""

import dataclasses
import functools
import numbers
import typing


class GaptrackError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(GaptrackError, ValueError):
    """A box, frame, or velocity carries non-finite or otherwise invalid values."""


class DegenerateBoxError(GeometryError):
    """A box width or height is not strictly positive."""


class EmptyInputError(GaptrackError, ValueError):
    """An operation that needs at least one sample received none."""


class SequencingError(GaptrackError, ValueError):
    """Frame indices are out of order or not contiguous where they must be."""


class NumericOverflowError(GaptrackError, FloatingPointError):
    """A forward pass produced non-finite activations."""


class TrainingDivergedError(GaptrackError, RuntimeError):
    """The training loss became non-finite.

    Carries the iteration index at which divergence was detected.
    """

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"training loss became non-finite at iteration {iteration}")


class ParseError(GaptrackError, ValueError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, path: str, line_number: int, message: str):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class SchemaError(GaptrackError, ValueError):
    """A serialized file does not match the expected layout or version."""


class CodebookMismatchError(GaptrackError, ValueError):
    """Model weights were trained against a different codebook than the one supplied."""


class ConfigError(GaptrackError, ValueError):
    """A run configuration is malformed, has unknown keys, or fails validation."""


class MetricsInputError(GaptrackError, ValueError):
    """Evaluation input is malformed, e.g. duplicate (frame, id) rows."""


@functools.cache
def _integer_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, accepts None) of each field of dataclass ``cls`` annotated ``int`` or ``int | None``."""
    hints = typing.get_type_hints(cls)
    kinds = {f.name: typing.get_args(hints[f.name]) or (hints[f.name],) for f in dataclasses.fields(cls)}
    return tuple((name, type(None) in kind) for name, kind in kinds.items() if int in kind)


def check_integer_fields(settings, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first ``int`` field of ``settings`` that holds a non-integer.

    Sizes, counts and seeds reach ``range``, slices and numpy shapes, which
    fail far from the cause on a float. bool is rejected, numpy integers
    pass, and ``None`` passes where the annotation allows it.
    """
    for name, nullable in _integer_fields(type(settings)):
        value = getattr(settings, name)
        if value is None and nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")
