"""Exception types, and the argument rules that several modules share."""

import math
import operator


class InvalidInputError(ValueError):
    """An input value violates a precondition (non-finite or negative entry)."""


class DomainError(ValueError):
    """A scalar parameter lies outside the mathematical domain of the operation."""


class DegenerateInputError(ValueError):
    """An input is structurally unusable (e.g. the zero sequence where a
    direction is required)."""


class ParameterError(ValueError):
    """A tuning parameter (tolerance, truncation size, ...) is out of range."""


def _check_count(value, name: str, least: int) -> int:
    """value as an int; `ParameterError` naming it unless it is an integer >= least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def _check_p(p: float, name: str = "p") -> None:
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"{name} must lie in (1, inf), got {p}")


def _check_positive(value: float, name: str, error=DomainError) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be finite and > 0, got {value}")
