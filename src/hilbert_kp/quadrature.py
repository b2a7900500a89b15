"""Certified integrals as series of positive terms.

Every integral of the library is built from

    P(c, s, z) = int_0^1 u^(c-1) (1 + z u)^(-s) du = (1/c) 2F1(s, c; c+1; -z),

summed lane-wise by a hypergeometric series of positive terms with a
geometric tail bound. `beta_integral`, eps I(eps) (`_scaled_I_of_epsilon`)
and the master inequalities are sums of a few P; F(y), the row-sum tail and
the midpoint integrals are binomial series in P (`_binomial_integral`), one
point per call.
Every series runs one term recurrence, and the intake alone picks its
loop: lanes built as Python floats (each binomial point's one or three,
`_unit_pair`'s two) run lane by lane from end to end (`_sum_lanes`, which
takes and returns lists, with no array built, and picks Pfaff's series or
Euler's per lane); the master inequalities' array batches, Pfaff lanes
only, run on arrays of their live lanes, one term per step, until few are
live (`_power_integral`). Both do the same float operations, so a lane's
result has the same bits on either.
Semi-infinite ranges are mapped onto (0, 1] exactly (t -> 1/t), never
truncated, and no integrand is sampled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, _check_p, _check_positive


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    terms: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:   # NaN fails this too
            raise ParameterError("error_estimate must be >= 0")


_UNIT_ROUNDOFF = 2.0 ** -53
# No series with a finite value comes near this: its terms peak near k = 2a,
# and (1+z)^a overflows for a above about 650 at z = 2.
_MAX_TERMS = 2 ** 16
# The array loop hands its lanes to `_run_lane` once at most this many are
# live, from where it left them. A numpy step costs about a term on each of 64
# lanes (some 20 us on a 2.1 GHz x86 core), but 32 ran the proof sweep as fast
# as 64 and left its peak RSS 0.2-0.7 MB lower.
_SCALAR_LANES = 32
# Python's float power (libm `pow`) as a ufunc on object arrays; see `_power_integral`.
_pow = np.frompyfunc(math.pow, 2, 1)


def _power_integral(x, s, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(x, s, z) = int_0^1 u^(x-1) (1 + z u)^(-s) du lane-wise over three
    1-D float arrays of equal length, each lane with finite x > 0, z >= 0
    and a = x+1-s > 0: returns value, error estimate and term count arrays.

    P is (1/x) 2F1(s, x; x+1; -z), and Pfaff's transformation (DLMF 15.8.1)
    on the upper parameter x turns it into a series of positive terms in
    w = z/(1+z),

        P = (1+z)^(-x) sum_k (a)_k / k! * w^k / (x+k).

    From term K on, every term ratio is at most r = max(1, (a+K)/(K+1)) w,
    so once r < 1 the terms after t_K sum to at most t_K r/(1-r). A lane
    stops once that bound is below double rounding of its partial sum S
    and adds the sum of S's TwoSum errors (Sum2: Ogita, Rump & Oishi, SIAM
    J. Sci. Comput. 26(6), 2005): within (u + g^2) S of the exact sum,
    g = K u/(1 - K u), u = 2^-53. The estimate is the tail bound, scaled as
    the sum is, plus ((6K + 8) u + g^2) P: six roundings per recurrence step
    (a's and w's included), two per term, and those of the sum, the power
    and the product. It is always positive. The power also raises the
    rounding d of 1 + z to its exponent x, so x |d|/(1+z) P is added; d is
    exact (TwoSum) and 0 where 1 + z is, as at z = 1/2, 1 and 2.
    `DomainError` names a lane outside that domain before any term is
    summed, a lane needing more than 2^16 terms, or one whose value or
    estimate is not finite.

    Its one caller, the master inequalities (`proof_checks._sides`), builds
    only such lanes; `_sum_lanes` sums lanes built as Python floats, by
    this series or, where a <= 0, by Euler's. Here every batch runs the
    term recurrence of `_run_lane` on arrays of its live lanes, one term
    per step, with `np.maximum` for the ratio bound. The lanes that stop at
    k leave the arrays with their (S, comp, r, t, k); once at most
    `_SCALAR_LANES` are live (from term 0 in a batch that small),
    `_run_lane` carries each on from where the arrays left it. A lane whose
    terms overflow runs on to the term cap, or stops with a sum that is
    named as not finite. The scale is `math.pow`, element by element, as
    `_sum_lanes`' `**`: `np.power` can take a SIMD kernel that rounds some
    powers otherwise. Both loops do the same float operations in the same
    order, finish a lane by the one `_finish` and raise the same errors in
    the same order, so each lane's value, estimate and term count are the
    same bits whichever loop sums it.
    """
    x, s, z = xsz = np.array([x, s, z], dtype=float)
    ok = np.isfinite(xsz).all(axis=0) & (x > 0.0) & (z >= 0.0) & ((1.0 - s) + x > 0.0)
    if not ok.all():
        lane = _lane(*xsz[:, int(np.argmin(ok))])
        raise DomainError(f"need finite x > 0, s and z >= 0 with x + 1 - s > 0, got {lane}")
    base = 1.0 + z
    stopped = np.empty((5, len(x)))   # S, comp, r, t, K of each lane
    live = np.arange(len(x))
    num, w, c = (1.0 - s) + x, z / base, x
    coeff, S, comp, k = np.ones(len(x)), np.zeros(len(x)), np.zeros(len(x)), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(live) > _SCALAR_LANES:
            if k == _MAX_TERMS:
                raise _capped(x[live[0]], s[live[0]], z[live[0]])
            factor = (num + k) / (1.0 + k) * w
            r = np.maximum(factor, w)
            t = coeff / (c + k)
            coeff *= factor
            partial = S + t
            bb = partial - S
            comp += (S - (partial - bb)) + (t - bb)
            S = partial
            stop = (r < 1.0) & (t * r <= (1.0 - r) * _UNIT_ROUNDOFF * S)
            if stop.any():
                stopped[:4, live[stop]] = S[stop], comp[stop], r[stop], t[stop]
                stopped[4, live[stop]] = k
                go = ~stop
                live, num, w, c, coeff, S, comp = (
                    a[go] for a in (live, num, w, c, coeff, S, comp))
            k += 1.0
        lanes = zip(live.tolist(), num.tolist(), w.tolist(), c.tolist(),
                    coeff.tolist(), S.tolist(), comp.tolist())
        for i, num, w, c, coeff, S, comp in lanes:
            stop = _run_lane(num, 1.0, w, False, c, coeff, S, comp, k)
            if stop is None:
                raise _capped(x[i], s[i], z[i])
            stopped[:, i] = stop
        value, estimate = _finish(_pow(base, -x).astype(float), x, z, *stopped)
    finite = np.isfinite(estimate)   # and so is every value
    if not finite.all():
        raise _not_finite(*xsz[:, int(np.argmin(finite))])
    return value, estimate, (stopped[4] + 1).astype(int)


def _lane(x, s, z) -> str:
    return f"x={float(x)}, s={float(s)}, z={float(z)}"


def _outside(x, s, z) -> DomainError:
    return DomainError(f"need finite x > 0, s and z >= 0, got {_lane(x, s, z)}")


def _capped(x, s, z) -> DomainError:
    return DomainError(f"series at {_lane(x, s, z)} needs more than {_MAX_TERMS} terms")


def _not_finite(x, s, z) -> DomainError:
    return DomainError(f"series at {_lane(x, s, z)} is not finite")


def _run_lane(num, den, w, euler, x, coeff, S, comp, k):
    """One lane of `_sum_lanes` or `_power_integral` on Python floats, from
    term k (a float index), the coefficient coeff of that term, the sum S
    of the terms before it and S's compensation, up to the term K at which
    the lane stops: returns (S, comp, r, t, K) with the ratio bound r and
    the last term t, or None if it does not stop within `_MAX_TERMS` terms.
    The coefficients follow coeff *= ((num+k)/(den+k)) w; a term is its
    coefficient over x + k on Pfaff's lanes (num = x+1-s, den = 1), or the
    coefficient itself on Euler's (num = s, den = x+1)."""
    u, cap = _UNIT_ROUNDOFF, _MAX_TERMS   # locals: read once per lane, not per term
    while k < cap:
        factor = (num + k) / (den + k) * w
        r = w if w > factor else factor   # max(factor, w) without the cost of a call
        t = coeff if euler else coeff / (x + k)
        coeff *= factor
        partial = S + t
        bb = partial - S
        comp += (S - (partial - bb)) + (t - bb)   # TwoSum error of S + t
        S = partial
        if r < 1.0 and t * r <= (1.0 - r) * u * S:
            return S, comp, r, t, k
        k += 1.0
    return None


def _finish(scale, e, z, S, comp, r, t, K):
    """Value and error estimate of stopped lanes of `_power_integral`, from
    the scale (1+z)^(-e), over x on Euler's lanes, the exponent e (s, or
    x), z, the partial sum S, its compensation, the ratio bound r, the last
    term t and its index K. The same plain float operations serve Python
    floats (`_sum_lanes`) and arrays (`_power_integral`), so both round alike."""
    base = 1.0 + z
    zb = base - 1.0
    d = (1.0 - (base - zb)) + (z - zb)   # 1 + z = base + d, exactly (TwoSum)
    value = scale * (S + comp)
    gamma = K / (2.0 ** 53 - K)   # K u/(1 - K u), exactly as rounded
    relative = (6 * K + 8) * _UNIT_ROUNDOFF + gamma * gamma + e * abs(d) / base
    return value, scale * (t * r / (1.0 - r)) + relative * value


def _sum_lanes(lanes):
    """P(x, s, z) on a list of (x, s, z) Python floats with finite x > 0,
    s and z >= 0, one lane at a time, by `_run_lane` from term 0 and
    `_finish`: returns value, estimate and term count lists.

    Where a = x+1-s > 0 a lane sums Pfaff's series of `_power_integral`;
    elsewhere, where s >= x+1 > 0, it sums Euler's: Pfaff's transformation
    on the other upper parameter s (DLMF 15.8.1 with 8.17.8) gives

        P = (1+z)^(-s)/x sum_k (s)_k/(x+1)_k w^k,   w = z/(1+z),

    whose term ratios from K on are at most r = max(1, (s+K)/(x+1+K)) w.
    The stop rule and the estimate are `_power_integral`'s, with the
    exponent s for x in the rounding of the power. This is the only place
    that picks the series. As on arrays, every lane is checked before any
    is summed, and a value that is not finite is named only once every
    lane has stopped."""
    for x, s, z in lanes:
        if not (0.0 < x < math.inf and -math.inf < s < math.inf and 0.0 <= z < math.inf):
            raise _outside(x, s, z)
    values, estimates, terms = [], [], []
    for x, s, z in lanes:
        euler = (1.0 - s) + x <= 0.0
        num, den = (s, x + 1.0) if euler else ((1.0 - s) + x, 1.0)
        base = 1.0 + z
        stop = _run_lane(num, den, z / base, euler, x, 1.0, 0.0, 0.0, 0.0)
        if stop is None:
            raise _capped(x, s, z)
        e, over = (s, x) if euler else (x, 1.0)
        value, estimate = _finish(base ** -e / over, e, z, *stop)
        values.append(value)
        estimates.append(estimate)
        terms.append(int(stop[4]) + 1)
    for lane, estimate in zip(lanes, estimates):
        if not math.isfinite(estimate):   # and so is every value
            raise _not_finite(*lane)
    return values, estimates, terms


# Below this y, `_binomial_integral` sums G_J(y) as int_0^inf - int_0^y; from
# it on, where that difference cancels, as a series in 1/y.
_NEAR = 0.1


def _check_exponents(p: float, alpha: float) -> None:
    """1 < p < inf and 0 <= alpha <= 1, where `_binomial_integral` holds."""
    _check_p(p)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")


def _binomial_integral(y: float, x: float, alpha: float, p: float) -> tuple[float, float, int]:
    """H(y, x) = int_y^inf s^(-r) (1+s)^(-1) (1 - x/(1+s))^(-alpha) ds,
    r = 1/p, for 1 < p < inf and 0 <= alpha <= 1 (`_check_exponents`), at
    one point y >= 0, 0 <= x <= 2(1+y)/3: returns value, error estimate and
    the longest series' term count.

    The binomial series of the last factor has positive terms,

        H = sum_j (alpha)_j/j! x^j G_j(y),  G_j(y) = int_y^inf s^(-r) (1+s)^(-1-j) ds,

    and, since G_(j+1) <= G_j/(1+y), each term is at most rho = x/(1+y)
    times the one before. The sum stops at the first J with
    rho^(J+1)/(1-rho) <= u, u = 2^-53, and its tail is bounded by
    T_J rho/(1-rho); alpha = 0 leaves one term and no tail. G_J is summed by
    the series of `_power_integral`, its one or three lanes by `_sum_lanes`:

        G_J = y^(-r-J) P(J+r, 1+J, 1/y)                                 (s = y/v), y >= 0.1,
        G_J = P(1-r, 1+J, 1) + P(J+r, 1+J, 1) - y^(1-r) P(1-r, 1+J, y)  (split at s = 1, s = yv), y < 0.1,

    and the others come down from it by parts, adding positive terms only:

        G_(j-1) = (j G_j + y^(1-r) (1+y)^(-j)) / (j-1+r).

    A step of that recurrence moves a relative error by at most 4 u more
    than the larger of its parts', so every G_j carries at most the
    relative error of G_J plus (5J + 3 + |log y|) u. The estimate is the
    tail bound plus H times that relative error, the estimate of G_J's
    series (with (J + 5 + |log y|) u for z = 1/y and the powers of y) over
    G_J, and (6J + 3) u more for the coefficients, the rounding of y and x,
    the products and the sum. A G_J below the least normal float (x at its
    bound, y from about 2000 at p = 2) raises `DomainError`; no public path
    gets there, as F(y) has y <= 1/2 and the row-sum tail and midpoint
    bounds x = 1/m.

    Everything runs on Python floats (the recurrence, the coefficients
    (alpha)_j/j! x^j, the products and their `math.fsum`) except the powers
    (1+y)^(-j), one numpy power over j = 1..J.
    """
    _check_exponents(p, alpha)
    # float(): a numpy scalar would take numpy's power, not libm's
    y, x = float(y), float(x)
    if not (y >= 0.0 and 0.0 <= x <= 2.0 * (1.0 + y) / 3.0):
        raise DomainError(f"need y >= 0 and 0 <= x <= 2(1+y)/3, got y={y}, x={x}")
    u, r = _UNIT_ROUNDOFF, 1.0 / p
    rho = 0.0 if alpha == 0.0 else x / (1.0 + y)
    J = 0 if rho == 0.0 else max(0, math.ceil(math.log(u * (1.0 - rho)) / math.log(rho)) - 1)
    log_y = abs(math.log(y)) if y > 0.0 else 0.0
    if y >= _NEAR:
        power = y ** -r * y ** -J
        (value,), (estimate,), terms = _sum_lanes([(J + r, 1.0 + J, 1.0 / y)])
        g = size = power * value
        error = power * estimate
    else:
        power = y ** (1.0 - r)
        value, estimate, terms = _sum_lanes(
            [(1.0 - r, 1.0 + J, 1.0), (J + r, 1.0 + J, 1.0), (1.0 - r, 1.0 + J, y)])
        g = value[0] + value[1] - power * value[2]
        size = value[0] + value[1] + power * value[2]
        error = estimate[0] + estimate[1] + power * estimate[2]
    if not g >= sys.float_info.min:
        raise DomainError(f"G_J underflows at y={y}, x={x}")
    relative = (error + (J + 5 + log_y) * u * size) / g + (11 * J + 6 + log_y) * u
    steps = (y ** (1.0 - r) * (1.0 + y) ** -np.arange(1.0, J + 1.0)).tolist()
    G = [g]
    for k in range(J, 0, -1):
        G.append((k * G[-1] + steps[k - 1]) / (k - 1 + r))
    coef, T = 1.0, [G[J]]
    for k in range(1, J + 1):
        coef *= (alpha + k - 1.0) / k * x
        T.append(coef * G[J - k])
    H = math.fsum(T)
    return H, relative * H + T[-1] * (1.0 + relative) * rho / (1.0 - rho), max(terms)


def _unit_pair(c1: float, c2: float) -> tuple[float, float, int]:
    """P(c1, 1, 1) + P(c2, 1, 1) by `_sum_lanes`: the value, the error
    estimate and the longer series' term count."""
    # float(): a numpy scalar would take numpy's power for the scale, not libm's
    value, estimate, terms = _sum_lanes([(float(c1), 1.0, 1.0), (float(c2), 1.0, 1.0)])
    return math.fsum(value), math.fsum(estimate), max(terms)


def beta_integral(x: float) -> QuadratureResult:
    """int_0^inf t^(x-1)/(1+t) dt = pi/sin(pi x), 0 < x < 1.

    Split at t = 1 and map [1, inf) to (0, 1] via t -> 1/t: the integral is
    P(x, 1, 1) + P(1-x, 1, 1), two series summed to double rounding.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"beta integral diverges for x = {x}")
    return QuadratureResult(*_unit_pair(x, 1.0 - x))


def F_of_y(y: float, p: float, alpha: float) -> QuadratureResult:
    """F(y) = int_0^inf (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha) dt
    for 0 <= y <= 1/2.

    With s = t + y, (t+1-y)^(-alpha) = (1+s)^(-alpha) (1 - 2y/(1+s))^(-alpha),
    so F(y) = H(y, 2y) (`_binomial_integral`), whose terms fall at least by
    2y/(1+y) <= 2/3. `terms` is the longest series' term count.
    """
    if not 0.0 <= y <= 0.5:
        raise DomainError(f"y must lie in [0, 1/2], got {y}")
    return QuadratureResult(*_binomial_integral(y, 2.0 * y, alpha, p))


def _scaled_I_of_epsilon(eps: float, p: float) -> tuple[float, float, int]:
    """eps I(eps) = int_1^inf y^(-(1/p+eps/q))/(1+y) dy + int_0^1
    x^(-(1/p-eps/p))/(1+x) dx, the sharpness-family integral times eps: with
    y -> 1/y, P(1/p + eps/q, 1, 1) + P(1 - (1-eps)/p, 1, 1) by `_unit_pair`.
    Returns value, error estimate and term count; free of the factor 1/eps,
    it stays finite for every positive eps."""
    _check_positive(eps, "eps")
    _check_p(p)
    invp = 1.0 / p
    return _unit_pair(invp + eps * (1.0 - invp), 1.0 - invp * (1.0 - eps))
