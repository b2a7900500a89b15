"""The coefficient space K^p: norms and the Hilbert matrix action on Taylor
coefficients.

Only coefficient magnitudes are modeled: every quantity in scope depends on
|a_m| only, so a `TaylorFunction` holds nonnegative coefficients.

The re-weighting A_m = a_(m-1) m^((p-2)/p) (`kp_to_lp_isometry`) is an
isometry onto l^p that carries the Hilbert matrix 1/(m+n+1) to WEIGHTED_MAIN,
(n/m)^(1/q-1/p)/(m+n-1), entry by entry, so the norm bounds for that kernel
(`norm-bounds`) bound the K^p norm of the Hilbert matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_count, _check_positive
from .kernels import KernelSpec, Variant, apply_operator
from .sequences import Sequence, _root_sum


@dataclass(frozen=True)
class TaylorFunction:
    """Finitely supported Taylor coefficient magnitudes, 0-based."""

    coeffs: Sequence

    def __post_init__(self):
        self.coeffs.require_start(0, "Taylor coefficients")
        self.coeffs.require_nonnegative("Taylor coefficients")

    @staticmethod
    def from_values(values) -> "TaylorFunction":
        return TaylorFunction(Sequence(0, values))


def kp_norm(f: TaylorFunction, p: float) -> float:
    """(sum (m+1)^(p-2) a_m^p)^(1/p) by `_root_sum`, the sum by `_sum2`; a
    term or sum past the float range raises `OverflowError`, and a nonzero
    f's norm is never 0."""
    _check_positive(p, "p")
    a = f.coeffs.values
    with np.errstate(over="ignore"):
        weight = np.arange(1.0, len(a) + 1.0) ** (p - 2.0)
    return _root_sum(a, p, weight)


def hilbert_apply(f: TaylorFunction, n_max: int) -> TaylorFunction:
    """Coefficients c_n = sum_m a_m/(m+n+1) of the Hilbert matrix image,
    0 <= n <= n_max: the classical operator 1/(m+n-1) on the 1-based
    indices m+1 and n+1, applied to a trimmed to its last nonzero
    coefficient. n_max is a count >= 0."""
    n_max = _check_count(n_max, "n_max", 0)
    a = f.coeffs.values
    nz = np.flatnonzero(a)
    a = a[:nz[-1] + 1] if len(nz) else a[:0]
    c = apply_operator(KernelSpec(Variant.CLASSICAL), Sequence(1, a), n_max + 1)
    return TaylorFunction(Sequence(0, c.values))
