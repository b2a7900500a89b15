"""Adaptive Gauss-Kronrod quadrature with algebraic endpoint singularities.

Semi-infinite integrals are never truncated: the standard reduction maps
[1, inf) to (0, 1] through t -> 1/t, and an algebraic endpoint singularity
t^(-s), 0 < s < 1, is removed by the substitution t = u^(1/(1-s)) before any
subdivision takes place.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, ParameterError

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss weights aligned with every second Kronrod node.
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# Panels after which `adaptive_integrate` gives up by default.
MAX_PANELS = 4000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ParameterError("error_estimate must be >= 0")


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel on [a, b]: (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _KRONROD_NODES), dtype=float)
    k15 = half * float(_KRONROD_WEIGHTS @ fx)
    g7 = half * float(_GAUSS_WEIGHTS @ fx[1::2])
    diff = abs(k15 - g7)
    # QUADPACK-style sharpened estimate, floored near machine precision.
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0
    err = max(err, 1e-16 * abs(k15))
    return k15, err


def _adaptive(f, lo: float, hi: float, tol: float, max_panels: int) -> QuadratureResult:
    value, err = _panel(f, lo, hi)
    heap = [(-err, lo, hi, value, err)]
    n_panels = 1
    while True:
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= tol:
            break
        if n_panels >= max_panels:
            best = math.fsum(item[3] for item in heap)
            raise AccuracyError(
                f"tolerance {tol} not reached after {n_panels} panels "
                f"(best error {total_err:.3e})", best, total_err)
        _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        n_panels += 1
    value = math.fsum(item[3] for item in heap)
    err = math.fsum(item[4] for item in heap)
    return QuadratureResult(value, err, n_panels)


def adaptive_integrate(f, lo: float, hi: float, tol: float,
                       singularity: tuple[str, float] | None = None,
                       max_panels: int = MAX_PANELS) -> QuadratureResult:
    """Integrate f over (lo, hi) to absolute tolerance tol.

    ``singularity`` declares an algebraic endpoint singularity as
    ``("lo", s)`` or ``("hi", s)`` with exponent 0 < s < 1, meaning the
    integrand behaves like (t - lo)^(-s) (resp. (hi - t)^(-s)) there. The
    singularity is removed by substitution before subdivision, so the hint
    is harmless when the integrand is actually bounded.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got ({lo}, {hi})")
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if singularity is None:
        return _adaptive(f, lo, hi, tol, max_panels)

    side, s = singularity
    if not 0.0 < s < 1.0:
        raise ParameterError(f"singularity exponent must lie in (0,1), got {s}")
    gamma = 1.0 / (1.0 - s)
    span = hi - lo
    if side == "lo":
        def g(u):
            u = np.asarray(u, dtype=float)
            return f(lo + u ** gamma) * gamma * u ** (gamma - 1.0)
    elif side == "hi":
        def g(u):
            u = np.asarray(u, dtype=float)
            return f(hi - u ** gamma) * gamma * u ** (gamma - 1.0)
    else:
        raise ParameterError(f"singularity side must be 'lo' or 'hi', got {side!r}")
    return _adaptive(g, 0.0, span ** (1.0 - s), tol, max_panels)


def _merge(*parts: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(
        math.fsum(r.value for r in parts),
        math.fsum(r.error_estimate for r in parts),
        sum(r.subdivisions for r in parts),
    )


def beta_integral(x: float, tol: float = 1e-10) -> QuadratureResult:
    """int_0^inf t^(x-1)/(1+t) dt = pi/sin(pi x), 0 < x < 1.

    Split at t = 1; the upper half maps to (0, 1] via t -> 1/t, leaving two
    endpoint singularities of exponents 1-x and x. Each half gets tol/2; if
    one misses it, the `AccuracyError` names tol and carries that half's best
    estimate.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"beta integral diverges for x = {x}")
    try:
        lower = adaptive_integrate(
            lambda t: t ** (x - 1.0) / (1.0 + t), 0.0, 1.0, 0.5 * tol,
            singularity=("lo", 1.0 - x))
        upper = adaptive_integrate(
            lambda u: u ** (-x) / (1.0 + u), 0.0, 1.0, 0.5 * tol,
            singularity=("lo", x))
    except AccuracyError as exc:
        raise AccuracyError(
            f"beta integral at x={x}: tolerance {tol} not reached after {MAX_PANELS} "
            f"panels on one half (best error {exc.error_estimate:.3e})",
            exc.value, exc.error_estimate) from exc
    return _merge(lower, upper)


def F_of_y(y: float, p: float, alpha: float, tol: float = 1e-10) -> QuadratureResult:
    """F(y) = int_0^inf (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha) dt
    for 0 <= y <= 1/2.

    At y = 1/2 the raw integrand degenerates at the lower endpoint, so the
    closed reduction F(1/2) = int_0^2 (t+1)^(alpha-1) t^(1/p-1) dt is used
    instead.
    """
    if not 0.0 <= y <= 0.5:
        raise DomainError(f"y must lie in [0, 1/2], got {y}")
    if p <= 1.0:
        raise DomainError(f"p must lie in (1, inf), got {p}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    invp = 1.0 / p
    if y == 0.5:
        return adaptive_integrate(
            lambda t: (t + 1.0) ** (alpha - 1.0) * t ** (invp - 1.0),
            0.0, 2.0, tol, singularity=("lo", 1.0 - invp))

    def head(t):
        return ((t + y) ** (-invp) * (t + 1.0 + y) ** (alpha - 1.0)
                * (t + 1.0 - y) ** (-alpha))

    def tail(u):
        # image of [1, inf) under t -> 1/u
        return (u ** (invp - 1.0) * (1.0 + y * u) ** (-invp)
                * (1.0 + (1.0 + y) * u) ** (alpha - 1.0)
                * (1.0 + (1.0 - y) * u) ** (-alpha))

    sing = ("lo", invp) if y == 0.0 else None
    lower = adaptive_integrate(head, 0.0, 1.0, 0.5 * tol, singularity=sing)
    upper = adaptive_integrate(tail, 0.0, 1.0, 0.5 * tol,
                               singularity=("lo", 1.0 - invp))
    return _merge(lower, upper)


def I_of_epsilon(eps: float, p: float, tol: float = 1e-10) -> QuadratureResult:
    """The sharpness-family integral
    I(eps) = (1/eps) (int_1^inf y^(-(1/p+eps/q))/(1+y) dy
                      + int_0^1 x^(-(1/p-eps/p))/(1+x) dx).
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if p <= 1.0:
        raise DomainError(f"p must lie in (1, inf), got {p}")
    invp = 1.0 / p
    invq = 1.0 - invp
    if invp - eps * invp <= 0.0:
        raise DomainError(f"eps = {eps} makes the x-integral diverge at 0")
    c = invp + eps * invq
    # [1, inf) mapped to (0, 1]: integrand u^(c-1)/(1+u).
    upper = adaptive_integrate(
        lambda u: u ** (c - 1.0) / (1.0 + u), 0.0, 1.0, 0.5 * tol * eps,
        singularity=("lo", 1.0 - c) if c < 1.0 else None)
    s = invp * (1.0 - eps)
    lower = adaptive_integrate(
        lambda x: x ** (-s) / (1.0 + x), 0.0, 1.0, 0.5 * tol * eps,
        singularity=("lo", s))
    merged = _merge(lower, upper)
    return QuadratureResult(merged.value / eps, merged.error_estimate / eps,
                            merged.subdivisions)
