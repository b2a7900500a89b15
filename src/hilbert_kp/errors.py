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


class DivergentTailError(DomainError):
    """Requested tail bound for a series that does not converge."""


class InsufficientTruncationError(ValueError):
    """Truncation size too small for the certified tail budget.

    ``minimal_m`` is the smallest truncation that would satisfy it.
    """

    def __init__(self, message, minimal_m):
        super().__init__(message)
        self.minimal_m = minimal_m
