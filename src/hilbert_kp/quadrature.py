"""Adaptive Gauss-Kronrod quadrature with algebraic endpoint singularities,
and Pfaff series for int_0^1 u^(x-1) (1+zu)^(-s) du (`_power_integral`,
behind `beta_integral`, `I_of_epsilon` and the master inequalities).

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


def _split_integral(what: str, tol: float, halves) -> QuadratureResult:
    """The sum of the integrals over (0, 1) of each (f, singularity) in
    halves, to tol. Each half gets tol/2; if one misses it, the
    `AccuracyError` names `what` and tol, the tolerance the caller asked for,
    and carries that half's best value and estimate."""
    try:
        parts = [adaptive_integrate(f, 0.0, 1.0, 0.5 * tol, singularity=sing)
                 for f, sing in halves]
    except AccuracyError as exc:
        raise AccuracyError(
            f"{what}: tolerance {tol} not reached after {MAX_PANELS} "
            f"panels on one half (best error {exc.error_estimate:.3e})",
            exc.value, exc.error_estimate) from exc
    return QuadratureResult(math.fsum(r.value for r in parts),
                            math.fsum(r.error_estimate for r in parts),
                            sum(r.subdivisions for r in parts))


_UNIT_ROUNDOFF = 2.0 ** -53
# Terms per lane in a first pass (the sweep's series need at most 92); a lane
# that has not stopped by then is summed again with twice as many.
_WIDTH = 128
# Lanes x terms of one pass. It bounds the memory a pass needs: each of its
# arrays is 64 KB, small enough for the allocator to reuse from pass to pass.
_CELLS = 64 * _WIDTH
# No series with a finite value comes near this: its terms peak near k = 2a,
# and (1+z)^a overflows for a above about 650 at z = 2.
_MAX_TERMS = 2 ** 16


def _power_integral(x, s, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(x, s, z) = int_0^1 u^(x-1) (1 + z u)^(-s) du for x > 0, z > 0, x+1-s > 0,
    lane-wise over 1-D arrays: returns value, error estimate and term count
    arrays.

    P is (1/x) 2F1(s, x; x+1; -z), and Pfaff's transformation (DLMF 15.8.1)
    turns it into a series of positive terms:

        P = (1+z)^(-x) sum_k (a)_k / k! * w^k / (x+k),  a = x+1-s,  w = z/(1+z).

    From term K on, every term ratio is at most r = max(1, (a+K)/(K+1)) w,
    so once r < 1 the terms after t_K sum to at most t_K r/(1-r). Each lane
    sums its terms with `math.fsum` until that tail bound falls below double
    rounding of its partial sum. The error estimate is the tail bound plus
    the rounding term (6K + 8) u P, u = 2^-53: six roundings per recurrence
    step (those of a and w included), two per term, and those of fsum, the
    power and the product. It is always positive.

    Lanes are summed together (`_sum_lanes`) with the operations of a scalar
    loop in its order, so each lane's value, estimate and term count are
    those of summing it alone.
    """
    x, s, z = (np.asarray(v, dtype=float) for v in (x, s, z))
    a = (1.0 - s) + x
    bad = ~((x > 0.0) & (z > 0.0) & (a > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"need x > 0, z > 0 and x+1-s > 0, "
                          f"got x={float(x[i])}, s={float(s[i])}, z={float(z[i])}")
    w = z / (1.0 + z)
    sums, tail = np.empty(len(x)), np.empty(len(x))
    last = np.empty(len(x), dtype=int)
    pending, width = np.arange(len(x)), _WIDTH
    while len(pending):
        if width > _MAX_TERMS:
            i = pending[0]
            raise DomainError(f"series at x={float(x[i])}, s={float(s[i])}, z={float(z[i])} "
                              f"needs more than {_MAX_TERMS} terms")
        short, rows = [], max(1, _CELLS // width)
        for lo in range(0, len(pending), rows):
            lanes = pending[lo:lo + rows]
            stopped, *done = _sum_lanes(x[lanes], a[lanes], w[lanes], width)
            sums[lanes[stopped]], tail[lanes[stopped]], last[lanes[stopped]] = done
            short.append(lanes[~stopped])
        pending, width = np.concatenate(short), 2 * width
    power = np.array([(1.0 + zi) ** -xi for xi, zi in zip(x.tolist(), z.tolist())])
    value = power * sums
    return value, tail + (6 * last + 8) * _UNIT_ROUNDOFF * value, last + 1


def _sum_lanes(x, a, w, width: int):
    """The first `width` terms of each lane, as a lanes x width matrix. Returns
    which lanes meet the stopping rule among them and, for those, the fsum of
    their terms, the tail bound and the last index K.

    The scalar recurrence coeff *= ((a+k)/(k+1)) w is a running product and
    the partial sums a running sum; `accumulate` evaluates both strictly left
    to right, so every entry is rounded as in the loop."""
    k = np.arange(width, dtype=float)
    w = w[:, None]
    step = (a[:, None] + k) / (k + 1.0)
    ratio = w * np.maximum(step, 1.0)   # w*step where step > 1, else w, exactly
    factors = np.empty_like(step)
    factors[:, 0] = 1.0
    np.multiply(step[:, :-1], w, out=factors[:, 1:])
    terms = np.multiply.accumulate(factors, axis=1) / (x[:, None] + k)
    partial = np.add.accumulate(terms, axis=1)
    stops = (ratio < 1.0) & (terms * ratio <= (1.0 - ratio) * _UNIT_ROUNDOFF * partial)
    first = stops.argmax(axis=1)
    stopped = stops[np.arange(len(x)), first]
    rows, last = np.flatnonzero(stopped), first[stopped]
    term, r = terms[rows, last], ratio[rows, last]
    sums = np.array([math.fsum(terms[i, :n + 1].tolist())
                     for i, n in zip(rows.tolist(), last.tolist())])
    return stopped, sums, term * r / (1.0 - r), last


def _unit_pair(c1: float, c2: float) -> tuple[float, float, int]:
    """P(c1, 1, 1) + P(c2, 1, 1) by `_power_integral`: the value, the error
    estimate and the longer series' term count."""
    value, estimate, terms = _power_integral([c1, c2], [1.0, 1.0], [1.0, 1.0])
    return math.fsum(value.tolist()), math.fsum(estimate.tolist()), int(terms.max())


def beta_integral(x: float) -> QuadratureResult:
    """int_0^inf t^(x-1)/(1+t) dt = pi/sin(pi x), 0 < x < 1.

    Split at t = 1 and map [1, inf) to (0, 1] via t -> 1/t: the integral is
    P(x, 1, 1) + P(1-x, 1, 1), two series summed to double rounding.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"beta integral diverges for x = {x}")
    return QuadratureResult(*_unit_pair(x, 1.0 - x))


def F_of_y(y: float, p: float, alpha: float, tol: float = 1e-10) -> QuadratureResult:
    """F(y) = int_0^inf (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha) dt
    for 0 <= y <= 1/2, split at t = 1.

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

    return _split_integral(f"F(y) at y={y}, p={p}, alpha={alpha}", tol, [
        (head, ("lo", invp) if y == 0.0 else None),
        (tail, ("lo", 1.0 - invp)),
    ])


def I_of_epsilon(eps: float, p: float) -> QuadratureResult:
    """The sharpness-family integral
    I(eps) = (1/eps) (int_1^inf y^(-(1/p+eps/q))/(1+y) dy
                      + int_0^1 x^(-(1/p-eps/p))/(1+x) dx)
           = (P(1/p + eps/q, 1, 1) + P(1 - (1-eps)/p, 1, 1))/eps,
    mapping [1, inf) to (0, 1] via y -> 1/y; both series run to double rounding.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if p <= 1.0:
        raise DomainError(f"p must lie in (1, inf), got {p}")
    invp = 1.0 / p
    if invp - eps * invp <= 0.0:
        raise DomainError(f"eps = {eps} makes the x-integral diverge at 0")
    value, estimate, terms = _unit_pair(invp + eps * (1.0 - invp), 1.0 - invp * (1.0 - eps))
    return QuadratureResult(value / eps, estimate / eps, terms)
