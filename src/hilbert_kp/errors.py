"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An input value violates a precondition (non-finite or negative entry)."""


class DomainError(ValueError):
    """A scalar parameter lies outside the mathematical domain of the operation."""


class DegenerateInputError(ValueError):
    """An input is structurally unusable (e.g. the zero sequence where a
    direction is required)."""


class ParameterError(ValueError):
    """A tuning parameter (tolerance, truncation size, ...) is out of range."""
