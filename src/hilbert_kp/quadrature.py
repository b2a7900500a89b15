"""Certified integrals as series of positive terms.

Every integral of the library is built from

    P(c, s, z) = int_0^1 u^(c-1) (1 + z u)^(-s) du = (1/c) 2F1(s, c; c+1; -z),

summed lane-wise by a hypergeometric series of positive terms with a
geometric tail bound (`_power_integral`). `beta_integral`, `I_of_epsilon`
and the master inequalities are sums of a few P; F(y), the row-sum tail and
the midpoint integrals are binomial series in P (`_binomial_integral`).
Semi-infinite ranges are mapped onto (0, 1] exactly (t -> 1/t), never
truncated, and no integrand is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    terms: int

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ParameterError("error_estimate must be >= 0")


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
    """P(x, s, z) = int_0^1 u^(x-1) (1 + z u)^(-s) du for finite x > 0,
    z >= 0 and s, lane-wise over its three arguments broadcast to 1-D
    arrays: returns value, error estimate and term count arrays.

    P is (1/x) 2F1(s, x; x+1; -z), and Pfaff's transformation (DLMF 15.8.1)
    on either upper parameter turns it into a series of positive terms in
    w = z/(1+z): where a = x+1-s > 0,

        P = (1+z)^(-x) sum_k (a)_k / k! * w^k / (x+k),

    and elsewhere (with 8.17.8), where s >= x+1 > 0,

        P = (1+z)^(-s)/x sum_k (s)_k/(x+1)_k w^k.

    From term K on, every term ratio is at most r = max(1, (a+K)/(K+1)) w,
    or max(1, (s+K)/(x+1+K)) w, so once r < 1 the terms after t_K sum to at
    most t_K r/(1-r). Each lane sums its terms with `math.fsum` until that
    tail bound falls below double rounding of its partial sum. The error
    estimate is the tail bound, scaled as the sum is, plus the rounding term
    (6K + 8) u P, u = 2^-53: six roundings per recurrence step (those of a
    and w included), two per term, and those of fsum, the power and the
    product. It is always positive. The power also raises the rounding d of
    1 + z to its exponent e (x, or s), so e |d|/(1+z) P is added; d is exact
    (TwoSum) and 0 where 1 + z is, as at z = 1/2, 1 and 2. A lane outside
    that domain, one that needs more than 2^16 terms, or one whose value or
    estimate is not finite raises `DomainError` naming it.

    Lanes are summed together (`_sum_lanes`) with the operations of a scalar
    loop in its order, so each lane's value, estimate and term count are
    those of summing it alone.
    """
    x, s, z = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, s, z)))
    bad = ~(np.isfinite(x) & np.isfinite(s) & np.isfinite(z) & (x > 0.0) & (z >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"need finite x > 0, s and z >= 0, got {_lane(x, s, z, i)}")
    euler = (1.0 - s) + x <= 0.0
    num = np.where(euler, s, (1.0 - s) + x)
    den = np.where(euler, x + 1.0, 1.0)
    base = 1.0 + z
    zb = base - 1.0
    d = (1.0 - (base - zb)) + (z - zb)   # 1 + z = base + d, exactly (TwoSum)
    w = z / base
    sums, tail = np.empty(len(x)), np.empty(len(x))
    last = np.empty(len(x), dtype=int)
    pending, width = np.arange(len(x)), _WIDTH
    # A lane whose terms overflow runs on to the term cap, or stops with a
    # sum that is not finite and is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        while len(pending):
            if width > _MAX_TERMS:
                raise DomainError(f"series at {_lane(x, s, z, pending[0])} "
                                  f"needs more than {_MAX_TERMS} terms")
            short, rows = [], max(1, _CELLS // width)
            for lo in range(0, len(pending), rows):
                lanes = pending[lo:lo + rows]
                stopped, *done = _sum_lanes(x[lanes], ~euler[lanes], num[lanes], den[lanes],
                                            w[lanes], width)
                sums[lanes[stopped]], tail[lanes[stopped]], last[lanes[stopped]] = done
                short.append(lanes[~stopped])
            pending, width = np.concatenate(short), 2 * width
        scale = np.array([bi ** -si / xi if e else bi ** -xi
                          for xi, si, bi, e in zip(x.tolist(), s.tolist(), base.tolist(),
                                                   euler.tolist())])
        value = scale * sums
        relative = (6 * last + 8) * _UNIT_ROUNDOFF + np.where(euler, s, x) * np.abs(d) / base
        estimate = scale * tail + relative * value
    finite = np.isfinite(estimate)   # and so is every value
    if not finite.all():
        raise DomainError(f"series at {_lane(x, s, z, int(np.argmin(finite)))} is not finite")
    return value, estimate, last + 1


def _lane(x, s, z, i: int) -> str:
    return f"x={float(x[i])}, s={float(s[i])}, z={float(z[i])}"


def _sum_lanes(x, pfaff, num, den, w, width: int):
    """The first `width` terms of each lane, as a lanes x width matrix. Returns
    which lanes meet the stopping rule among them and, for those, the fsum of
    their terms, the tail bound and the last index K.

    The scalar recurrence coeff *= ((num+k)/(den+k)) w is a running product
    and the partial sums a running sum; `accumulate` evaluates both strictly
    left to right, so every entry is rounded as in the loop. Pfaff lanes
    divide each coefficient by x+k."""
    k = np.arange(width, dtype=float)
    w = w[:, None]
    step = (num[:, None] + k) / (den[:, None] + k)
    ratio = w * np.maximum(step, 1.0)   # w*step where step > 1, else w, exactly
    factors = np.empty_like(step)
    factors[:, 0] = 1.0
    np.multiply(step[:, :-1], w, out=factors[:, 1:])
    terms = np.multiply.accumulate(factors, axis=1)
    np.divide(terms, x[:, None] + k, out=terms, where=pfaff[:, None])
    partial = np.add.accumulate(terms, axis=1)
    stops = (ratio < 1.0) & (terms * ratio <= (1.0 - ratio) * _UNIT_ROUNDOFF * partial)
    first = stops.argmax(axis=1)
    stopped = stops[np.arange(len(x)), first]
    rows, last = np.flatnonzero(stopped), first[stopped]
    term, r = terms[rows, last], ratio[rows, last]
    sums = np.array([math.fsum(terms[i, :n + 1].tolist())
                     for i, n in zip(rows.tolist(), last.tolist())])
    return stopped, sums, term * r / (1.0 - r), last


# Below this y, `_binomial_integral` sums G_J(y) as int_0^inf - int_0^y; from
# it on, where that difference cancels, as a series in 1/y.
_NEAR = 0.1


def _check_exponents(p: float, alpha: float) -> None:
    """1 < p < inf and 0 <= alpha <= 1, where `_binomial_integral` holds."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"p must lie in (1, inf), got {p}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")


def _binomial_integral(y, x, alpha: float, p: float):
    """H(y, x) = int_y^inf s^(-r) (1+s)^(-1) (1 - x/(1+s))^(-alpha) ds,
    r = 1/p, for 1 < p < inf and 0 <= alpha <= 1 (`_check_exponents`),
    lane-wise over 1-D arrays y >= 0 and 0 <= x <= 2(1+y)/3: returns value,
    error estimate and term count arrays.

    The binomial series of the last factor has positive terms,

        H = sum_j (alpha)_j/j! x^j G_j(y),  G_j(y) = int_y^inf s^(-r) (1+s)^(-1-j) ds,

    and, since G_(j+1) <= G_j/(1+y), each term is at most rho = x/(1+y)
    times the one before. The sum stops at the first J with
    rho^(J+1)/(1-rho) <= u, u = 2^-53, and its tail is bounded by
    T_J rho/(1-rho); alpha = 0 leaves one term and no tail. G_J is summed by
    `_power_integral`, the top lanes of all points in one batch:

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
    the products and the sum.
    """
    _check_exponents(p, alpha)
    u, r = _UNIT_ROUNDOFF, 1.0 / p
    plans, lanes = [], []
    for yi, xi in zip(np.asarray(y, dtype=float).tolist(), np.asarray(x, dtype=float).tolist()):
        if not (yi >= 0.0 and 0.0 <= xi <= 2.0 * (1.0 + yi) / 3.0):
            raise DomainError(f"need y >= 0 and 0 <= x <= 2(1+y)/3, got y={yi}, x={xi}")
        rho = 0.0 if alpha == 0.0 else xi / (1.0 + yi)
        J = 0 if rho == 0.0 else max(0, math.ceil(math.log(u * (1.0 - rho)) / math.log(rho)) - 1)
        if yi >= _NEAR:
            lanes.append((J + r, 1.0 + J, 1.0 / yi))
        else:
            lanes += [(1.0 - r, 1.0 + J, 1.0), (J + r, 1.0 + J, 1.0), (1.0 - r, 1.0 + J, yi)]
        plans.append((yi, xi, rho, J))
    value, estimate, terms = _power_integral(*zip(*lanes))
    out, at = [], 0
    for yi, xi, rho, J in plans:
        log_y = abs(math.log(yi)) if yi > 0.0 else 0.0
        if yi >= _NEAR:
            power, used = yi ** -r * yi ** -J, 1
            g = size = power * value[at]
            error = power * estimate[at]
        else:
            power, used = yi ** (1.0 - r), 3
            g = value[at] + value[at + 1] - power * value[at + 2]
            size = value[at] + value[at + 1] + power * value[at + 2]
            error = estimate[at] + estimate[at + 1] + power * estimate[at + 2]
        relative = (error + (J + 5 + log_y) * u * size) / g + (11 * J + 6 + log_y) * u
        j = np.arange(1.0, J + 1.0)
        steps = (yi ** (1.0 - r) * (1.0 + yi) ** -j).tolist()
        G = [g]
        for k in range(J, 0, -1):
            G.append((k * G[-1] + steps[k - 1]) / (k - 1 + r))
        coef = np.multiply.accumulate(np.concatenate([[1.0], (alpha + j - 1.0) / j * xi]))
        T = coef * np.array(G[::-1])
        H = math.fsum(T.tolist())
        tail = T[-1] * (1.0 + relative) * rho / (1.0 - rho)
        out.append((H, relative * H + tail, int(terms[at:at + used].max())))
        at += used
    return tuple(np.array(v) for v in zip(*out))


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


def F_of_y(y: float, p: float, alpha: float) -> QuadratureResult:
    """F(y) = int_0^inf (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha) dt
    for 0 <= y <= 1/2.

    With s = t + y, (t+1-y)^(-alpha) = (1+s)^(-alpha) (1 - 2y/(1+s))^(-alpha),
    so F(y) = H(y, 2y) (`_binomial_integral`), whose terms fall at least by
    2y/(1+y) <= 2/3. `terms` is the longest series' term count.
    """
    if not 0.0 <= y <= 0.5:
        raise DomainError(f"y must lie in [0, 1/2], got {y}")
    value, estimate, terms = _binomial_integral([y], [2.0 * y], alpha, p)
    return QuadratureResult(float(value[0]), float(estimate[0]), int(terms[0]))


def _scaled_I_of_epsilon(eps: float, p: float) -> tuple[float, float, int]:
    """eps I(eps) = P(1/p + eps/q, 1, 1) + P(1 - (1-eps)/p, 1, 1) by
    `_unit_pair`: the value, the error estimate and the term count. Free of
    the factor 1/eps, it stays finite for every positive eps."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    if p <= 1.0:
        raise DomainError(f"p must lie in (1, inf), got {p}")
    invp = 1.0 / p
    return _unit_pair(invp + eps * (1.0 - invp), 1.0 - invp * (1.0 - eps))


def I_of_epsilon(eps: float, p: float) -> QuadratureResult:
    """The sharpness-family integral
    I(eps) = (1/eps) (int_1^inf y^(-(1/p+eps/q))/(1+y) dy
                      + int_0^1 x^(-(1/p-eps/p))/(1+x) dx)
           = (P(1/p + eps/q, 1, 1) + P(1 - (1-eps)/p, 1, 1))/eps,
    mapping [1, inf) to (0, 1] via y -> 1/y; both series run to double rounding.
    """
    value, estimate, terms = _scaled_I_of_epsilon(eps, p)
    return QuadratureResult(value / eps, estimate / eps, terms)
