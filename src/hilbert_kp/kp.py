"""The coefficient space K^p: norms, the Hilbert matrix action on Taylor
coefficients, and the embedding into K^1.

Only coefficient magnitudes are modeled: every quantity in scope depends on
|a_m| only, so a `TaylorFunction` holds nonnegative coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .sequences import Sequence, conjugate

ZETA_2 = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class TaylorFunction:
    """Finitely supported Taylor coefficient magnitudes, 0-based."""

    coeffs: Sequence

    def __post_init__(self):
        if self.coeffs.start_index != 0:
            raise DomainError("Taylor coefficients must be 0-based")
        self.coeffs.require_nonnegative("Taylor coefficients")

    @staticmethod
    def from_values(values) -> "TaylorFunction":
        return TaylorFunction(Sequence(0, tuple(values)))


def kp_norm(f: TaylorFunction, p: float) -> float:
    """(sum (m+1)^(p-2) a_m^p)^(1/p)."""
    if p <= 0.0:
        raise DomainError(f"p must be positive, got {p}")
    a = np.asarray(f.coeffs.values, dtype=float)
    total = math.fsum((np.arange(1.0, len(a) + 1.0) ** (p - 2.0) * a ** p).tolist())
    return total ** (1.0 / p)


def hilbert_apply(f: TaylorFunction, n_max: int) -> TaylorFunction:
    """Coefficients c_n = sum_m a_m/(m+n+1) of the Hilbert matrix image,
    0 <= n <= n_max, as the correlation of the Hankel symbol 1/(s+1) with a
    trimmed to its last nonzero coefficient."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    a = np.asarray(f.coeffs.values, dtype=float)
    nz = np.flatnonzero(a)
    if len(nz) == 0:
        return TaylorFunction(Sequence(0, (0.0,) * (n_max + 1)))
    a = a[:nz[-1] + 1]
    c = np.correlate(1.0 / np.arange(1.0, len(a) + n_max + 1.0), a, "valid")
    return TaylorFunction(Sequence(0, tuple(c.tolist())))


def k1_embedding_bound(f: TaylorFunction, p: float) -> tuple[float, float]:
    """Both sides of the K^p -> K^1 embedding estimate:
    lhs = sum a_m/(m+1), rhs = zeta(2)^(1/q) * ||f||_{K^p}."""
    pq = conjugate(p)
    a = np.asarray(f.coeffs.values, dtype=float)
    lhs = math.fsum((a / np.arange(1.0, len(a) + 1.0)).tolist())
    rhs = ZETA_2 ** (1.0 / pq.q) * kp_norm(f, p)
    return lhs, rhs
