"""Numerical certification of the main-inequality proof chain.

Every check evaluates both sides of one displayed inequality (or the sign of
one displayed expression) in floating point, with the error estimates of its
series (`quadrature`) folded into an explicit error budget. A report stores
the sides, the budget and any side condition; its margin and verdict are
derived from them, so a check passes only when its side condition holds and
its margin clears the budget. The row summand f and the integrand g_t are
one three-power product (`_three_power`) over different bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, _check_count
from .quadrature import _binomial_integral, _check_exponents, _power_integral


@dataclass(slots=True)
class CheckReport:
    """One check's sides, budget and side condition `holds`; `terms` is the
    longest series (`_power_integral`) it summed, 0 if none. The verdict is
    derived, never stored: `margin` is rhs - lhs, and a check has `passed`
    when its side condition holds and its margin clears its budget, read
    from the fields each time.

    Slotted, not frozen: a frozen dataclass sets each field through
    `object.__setattr__`, several times the cost of a slotted one's plain
    stores, and a sweep builds one report per grid point and inequality.
    So a report is mutable and unhashable; nothing hashes or changes one,
    and `replace` builds a new one."""

    name: str
    parameters: str
    lhs: float
    rhs: float
    error_budget: float
    terms: int = 0
    holds: bool = True

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.holds and self.rhs - self.lhs > self.error_budget


# ---------------------------------------------------------------------------
# the row summand and its convexity

def _three_power(a, b, c, p: float, alpha: float):
    """a^(-1/p) b^(alpha-1) c^(-alpha) and its (log)'' a^-2/p + b^-2 +
    alpha (c^-2 - b^-2) along bases of slope +-1: t, m+t, m+t-1 for the row
    summand f(t), and t+y, t+1+y, t+1-y for the integrand g_t(y)."""
    value = a ** (-1.0 / p) * b ** (alpha - 1.0) * c ** -alpha
    return value, a ** -2.0 / p + b ** -2.0 + alpha * (c ** -2.0 - b ** -2.0)


def _sorted_grid(values, ok, message: str) -> np.ndarray:
    """values sorted, as floats; `DomainError` if empty, or with message if a point fails ok."""
    grid = np.sort(np.asarray(values, dtype=float), axis=None)
    if not grid.size:
        raise DomainError("need at least one grid point")
    if not np.all(ok(grid)):
        raise DomainError(message)
    return grid


def _logconvexity(name: str, parameters: str, bases, p: float, alpha: float,
                  grid, inner, h) -> CheckReport:
    """(log)'' > 0 on the grid, with the sign of a central second difference
    of the summand at the grid points `grid[inner]`, step h, as side
    condition; `bases` maps the variable to the three bases of `_three_power`."""
    _check_exponents(p, alpha)

    def at(v):
        return _three_power(*bases(v), p, alpha)

    value, curvature = at(grid)
    mid = grid[inner]
    second = at(mid - h)[0] + at(mid + h)[0] - 2.0 * value[inner]
    return CheckReport(name, f"{parameters},p={p},alpha={alpha},grid={len(grid)}", 0.0,
                       float(curvature.min()), 0.0, holds=bool(np.all(second > 0.0)))


def check_logconvexity_f(m: int, p: float, alpha: float, t_grid) -> CheckReport:
    """(log f)'' > 0 for f(t) = t^(-1/p) (m+t)^(alpha-1) (m+t-1)^(-alpha),
    count m >= 1, at every point t > 0 of a nonempty grid; the second
    difference steps by 1e-4 max(1, t).

    The sign holds at every t > 0, not only on the grid:
    (log f)'' = t^-2/p + (1-alpha) (m+t)^-2 + alpha (m+t-1)^-2, the bases
    t, m+t and m+t-1 are positive, and `_check_exponents` enforces
    0 <= alpha <= 1, so every term is >= 0 and t^-2/p > 0. The grid
    values and second differences are a cross-check of that argument."""
    m = _check_count(m, "m", 1)
    t = _sorted_grid(t_grid, lambda v: (v > 0.0) & (v < np.inf),
                     "grid points must be positive and finite")
    return _logconvexity("logconvexity_f", f"m={m}", lambda v: (v, m + v, m + v - 1.0),
                         p, alpha, t, slice(None), 1e-4 * np.maximum(1.0, t))


def check_logconvexity_g(t: float, p: float, alpha: float, y_grid) -> CheckReport:
    """(log g_t)'' > 0 for g_t(y) = (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha),
    t > 0, at every point y in [0, 1/2] of a nonempty grid; the second
    difference steps by 1e-4 at the grid points at least that far inside.

    The sign holds at every y in [0, 1/2], not only on the grid:
    (log g_t)'' = (t+y)^-2/p + (1-alpha) (t+1+y)^-2 + alpha (t+1-y)^-2,
    the bases are positive (t+1-y >= t+1/2), and `_check_exponents`
    enforces 0 <= alpha <= 1, so every term is >= 0 and (t+y)^-2/p > 0.
    The grid values and second differences are a cross-check of that
    argument."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    y = _sorted_grid(y_grid, lambda v: (v >= 0.0) & (v <= 0.5), "y grid must lie in [0, 1/2]")
    return _logconvexity("logconvexity_g", f"t={t}", lambda v: (t + v, t + 1.0 + v, t + 1.0 - v),
                         p, alpha, y, (y - 1e-4 >= 0.0) & (y + 1e-4 <= 0.5), 1e-4)


# ---------------------------------------------------------------------------
# midpoint bound and the F-maximum reduction

def check_midpoint_bound(m: int, p: float, alpha: float, n_max: int) -> CheckReport:
    """f(n) < int_{n-1/2}^{n+1/2} f(t) dt for 1 <= n <= n_max, counts m, n_max >= 1.

    With t = m s, int_a^inf f = m^(-1/p) H(a/m, 1/m) (`_binomial_integral`),
    so each integral is a difference of H at (n -+ 1/2)/m; H is summed at
    all n_max + 1 ends in one batch. The budget is the largest sum of two
    ends' estimates, scaled by m^(-1/p), plus (3 + log m) u times the
    integral for the rounding of that factor.

    The bound holds for every m >= 1 and n >= 1, not only up to n_max: f is
    log-convex on t > 0 (`check_logconvexity_f`), so f'' = f ((log f)'' +
    (log f)'^2) > 0 and f is strictly convex there, and Hermite-Hadamard
    gives f(n) < int_{n-1/2}^{n+1/2} f on [n-1/2, n+1/2], which lies in
    t > 0. The summed integrals are a cross-check of that argument."""
    m, n_max = _check_count(m, "m", 1), _check_count(n_max, "n_max", 1)
    ends = (np.arange(n_max + 1.0) + 0.5) / m
    value, estimate, terms = _binomial_integral(ends, np.full(n_max + 1, 1.0 / m), alpha, p)
    scale = m ** (-1.0 / p)
    integral = scale * (value[:-1] - value[1:])
    budget = scale * (estimate[:-1] + estimate[1:]) + (3.0 + math.log(m)) * 2.0 ** -53 * integral
    n = np.arange(1.0, n_max + 1.0)
    fn = _three_power(n, m + n, m + n - 1.0, p, alpha)[0]
    i = int(np.argmin(integral - fn))
    return CheckReport(
        "midpoint_bound", f"m={m},p={p},alpha={alpha},n_max={n_max},worst_n={i + 1}",
        float(fn[i]), float(integral[i]), float(budget.max()), int(terms.max()))


def check_F_convex_max(p: float, alpha: float, y_grid) -> CheckReport:
    """F(y) < max(F(0), F(1/2)) at the grid points inside (0, 1/2), plus
    discrete convexity of the sampled values; the grid points must be
    distinct. F(y) = H(y, 2y) (`_binomial_integral`) is summed at both ends
    and the grid in one batch; the budget is the ends' estimates plus the
    largest estimate inside.

    The bound holds at every y in (0, 1/2), not only on the grid: each
    integrand g_t, t > 0, of F(y) = int_0^inf g_t(y) dt (`F_of_y`) is
    log-convex in y on [0, 1/2] (`check_logconvexity_g`), so g_t'' =
    g_t ((log g_t)'' + (log g_t)'^2) > 0 and g_t is strictly convex there;
    so is their integral F, and a strictly convex F on [0, 1/2] has
    F(y) < max(F(0), F(1/2)) inside. The sampled values are a cross-check
    of that argument."""
    y = _sorted_grid(y_grid, lambda v: (v >= 0.0) & (v <= 0.5), "y grid must lie in [0, 1/2]")
    if np.any(np.diff(y) == 0.0):
        raise DomainError("y grid points must be distinct")
    inside = (y > 0.0) & (y < 0.5)
    if not inside.any():
        raise DomainError("y grid needs a point inside (0, 1/2)")
    ends_and_grid = np.concatenate([[0.0, 0.5], y])
    value, estimate, terms = _binomial_integral(ends_and_grid, 2.0 * ends_and_grid, alpha, p)
    vals, errs = value[2:], estimate[2:]
    # divided second differences must not be significantly negative
    slopes = np.diff(vals) / np.diff(y)
    slack = (errs[:-2] + errs[1:-1] + errs[2:]) / np.diff(y)[:-1]
    return CheckReport(
        "F_convex_max", f"p={p},alpha={alpha},grid={len(y)}",
        float(vals[inside].max()), float(value[:2].max()),
        float(estimate[0] + estimate[1] + errs[inside].max()), int(terms.max()),
        holds=not np.any(np.diff(slopes) < -slack))


# ---------------------------------------------------------------------------
# the two master integral inequalities, reduced to (0, 1] via t -> 1/t

def _check_x(x: float) -> None:
    """The proof's domain of x = 1/p, (0, 1/2]; NaN lies outside it."""
    if not 0.0 < x <= 0.5:
        raise DomainError(f"x must lie in (0, 1/2], got {x}")


def _master_points(x, alpha) -> tuple:
    """(x, alpha, beta) as 1-D float arrays from scalars or arrays that
    broadcast, beta = (1 - alpha x)/(1 - x). There must be at least one
    point, and every point must have 0 < x <= 1/2 and 0 <= alpha x <= 1,
    with alpha >= 0; the first that does not is named in a `DomainError`.
    An alpha of -0.0 becomes 0.0, so that its text does not depend on
    which zero came first."""
    x, alpha = np.broadcast_arrays(*(np.asarray(v, dtype=float).ravel() for v in (x, alpha)))
    if x.size == 0:
        raise DomainError("need at least one point (x, alpha)")
    bad = ~((0.0 < x) & (x <= 0.5) & (0.0 <= alpha) & (alpha * x <= 1.0))   # NaN too
    if bad.any():
        i = int(bad.argmax())
        _check_x(float(x[i]))
        raise DomainError(f"need 0 <= alpha*x <= 1, got alpha={float(alpha[i])}")
    alpha = alpha + 0.0     # -0.0 + 0.0 is 0.0
    return x, alpha, (1.0 - alpha * x) / (1.0 - x)


def _sides(c: np.ndarray, cbar: np.ndarray, e: np.ndarray) -> tuple:
    """Lane triples (value, estimate, terms) of both sides of a master
    inequality at the points (c, cbar, e); `terms` is the longest series a
    side sums.

        lhs = P(c, 1-e, 2) - P(c, 1, 2),   rhs = P(cbar, 1, 1/2)/2.

    The second inequality is the first mirrored, x -> 1-x and alpha -> beta:

        lhs_I  = int_0^1 ((1+2u)^alpha - 1) u^(x-1)/(1+2u) du,  rhs_I  = int_0^1 u^(-x)/(2+u) du,
        lhs_II = int_0^1 ((1+2u)^beta - 1) u^(-x)/(1+2u) du,    rhs_II = int_0^1 u^(x-1)/(2+u) du,

    so I is `_sides(x, 1-x, alpha)` and II is `_sides(1-x, x, beta)`. lhs is
    0, with estimate 0 and no terms, where e = 0. All three series of all
    points are one `_power_integral` batch."""
    live = e != 0.0
    n, size = int(live.sum()), len(c)
    value, estimate, terms = _power_integral(
        np.concatenate([c[live], c[live], cbar]),
        np.concatenate([1.0 - e[live], np.ones(n + size)]),
        np.concatenate([np.full(2 * n, 2.0), np.full(size, 0.5)]))
    lhs = np.zeros(size), np.zeros(size), np.zeros(size, dtype=int)
    for full, part in zip(lhs, (value[:n] - value[n:2 * n], estimate[:n] + estimate[n:2 * n],
                                np.maximum(terms[:n], terms[n:2 * n]))):
        full[live] = part
    return lhs, (0.5 * value[2 * n:], 0.5 * estimate[2 * n:], terms[2 * n:])


def _reports(name: str, parameters: list[str], lhs, rhs) -> list[CheckReport]:
    """One report per point from the sides' lane triples; the budget is the
    sum of the sides' estimates."""
    return [CheckReport(name, par, left, right, budget, terms)
            for par, left, right, budget, terms in zip(
                parameters, lhs[0].tolist(), rhs[0].tolist(), (lhs[1] + rhs[1]).tolist(),
                np.maximum(lhs[2], rhs[2]).tolist())]


def check_master_inequalities(x, alpha) -> list[CheckReport]:
    """lhs_I < rhs_I and lhs_II < rhs_II at the points (x, alpha), scalars
    or 1-D arrays that broadcast: one `ineq_I` and one `ineq_II` report per
    point, interleaved in point order, beta = (1 - alpha x)/(1 - x).

    Each side is built from P(c, s, z) = int_0^1 u^(c-1) (1+zu)^(-s) du
    = (1/c) 2F1(s, c; c+1; -z) = (1+z)^(-c)/c 2F1(c+1-s, c; c+1; z/(1+z))
    (Pfaff), a series of positive terms (`_power_integral`); II is I
    mirrored (`_sides`). Each budget is the sum of the sides' error
    estimates, each a geometric tail bound plus a rounding term; that term
    also covers the rounding of the inputs 1-x and beta, which moves a side
    by at most about 10 u. All series of all points are one batch per
    inequality.

    For fixed alpha, lhs_I does not increase with x (its integrand carries
    u^(x-1), which falls) and rhs_I does not decrease (u^(-x) rises); so a
    pass of I at x settles it on [x, x'] for every larger x' under the same
    alpha. lhs_II does not decrease (u^(-x) rises, and beta' =
    (1-alpha)/(1-x)^2 >= 0) and rhs_II does not increase (u^(x-1) falls);
    so a pass of II at x settles it on (x', x] for every smaller x'.

    Each inequality is a drop of F(y) (`F_of_y`) from y = 0 to y = 1/2:
    F(0) - F(1/2) = 2^x (rhs_I - lhs_I) with p = 1/x, and mirrored,
    G(0) - G(1/2) = 2^(1-x) (rhs_II - lhs_II), where G is F at (q, beta).
    """
    x, alpha, beta = _master_points(x, alpha)
    xs, alphas = x.tolist(), alpha.tolist()
    # str of a float is its repr; each alpha's text is built once.
    suffix = {a: ",alpha=" + repr(a) for a in set(alphas)}
    parameters = ["x=" + repr(xi) + suffix[ai] for xi, ai in zip(xs, alphas)]
    first = _reports("ineq_I", parameters, *_sides(x, 1.0 - x, alpha))
    second = _reports("ineq_II", [par + ",beta=" + repr(bi)
                                  for par, bi in zip(parameters, beta.tolist())],
                      *_sides(1.0 - x, x, beta))
    return [report for pair in zip(first, second) for report in pair]


def check_monotone_in_x(alpha: float, x_grid) -> CheckReport:
    """Directionality that lets one endpoint settle a whole subinterval:
    along increasing x, the left side of the first inequality does not
    increase and its right side does not decrease; mirrored for the second."""
    xs = sorted(x_grid)
    if len(xs) < 2:
        raise DomainError("need at least two grid points")
    x, alphas, beta = _master_points(xs, alpha)
    (l1, e1, k1), (r1, f1, m1) = _sides(x, 1.0 - x, alphas)
    (l2, e2, k2), (r2, f2, m2) = _sides(1.0 - x, x, beta)
    budget = float(np.max(2.0 * (f1 + e2 + f2) + 2.0 * e1))
    steps = np.concatenate([l1[:-1] - l1[1:],    # lhs I nonincreasing
                            r1[1:] - r1[:-1],    # rhs I nondecreasing
                            l2[1:] - l2[:-1],    # lhs II nondecreasing
                            r2[:-1] - r2[1:]])   # rhs II nonincreasing
    return CheckReport(
        "monotone_in_x", f"alpha={alpha},grid={len(xs)}",
        -float(steps.min()), 0.0, -budget, int(max(k.max() for k in (k1, m1, k2, m2))))


def alpha_schedule(x: float) -> float:
    """The proof's interpolation-weight choice on the three subintervals of
    (0, 1/2]; boundary points resolve to the left-hand case."""
    _check_x(x)
    if x <= 1.0 / 3.0:
        return 0.0
    if x <= 2.0 / 5.0:
        return 0.5
    return 1.0


def check_bernoulli_steps(x: float, t_grid) -> CheckReport:
    """The three power-majorization steps used in the endpoint cases:
    (1+2/t)^(1/(1-x)) <= (1+2/t)(1 + (x/(1-x)) 2/t),
    (1+2/t)^(1/2)     <= 1 + 1/t,
    (1+2/t)^(4/3)     <= 1 + (4/(3 t^2))(2t+1),  at every t >= 1 of a nonempty grid.

    At x = 1/2 the first step is the identity (1+2/t)^2 = (1+2/t)^2: its
    margin is exactly 0, and no positive budget can certify it. So the
    budget is a rounding allowance, -20 u S, u = 2^-53, S the largest side
    on the grid (9 at t = 1, x = 1/2). The first step's right side errs by
    at most 8 u (two quotients, sums and products), its left by 11 u (the
    base's 2 u times an exponent <= 2; the exponent's 2 u, times e ln 3;
    the power's 2 u), and the subtraction by u S; the others by 5 u S and
    14 u S.

    All three hold for every t > 0, not only on the grid: each is
    Bernoulli's inequality (1+v)^theta <= 1 + theta v, theta in [0, 1],
    at v = 2/t > 0. The first is theta = x/(1-x) in (0, 1] after factoring
    out 1 + v; the second is theta = 1/2; the third is theta = 1/3 after
    factoring out 1 + v, as (1+v)(1+v/3) = 1 + (4/(3 t^2))(2t+1). The grid
    values are a cross-check of that argument.
    """
    _check_x(x)
    t = _sorted_grid(t_grid, lambda v: v >= 1.0, "grid points must be >= 1")
    u = 2.0 / t
    ratio = x / (1.0 - x)
    sides = [((1.0 + u) * (1.0 + ratio * u), (1.0 + u) ** (1.0 / (1.0 - x))),
             (1.0 + 1.0 / t, np.sqrt(1.0 + u)),
             (1.0 + 4.0 / (3.0 * t ** 2) * (2.0 * t + 1.0), (1.0 + u) ** (4.0 / 3.0))]
    worst = min(float(np.min(rhs - lhs)) for rhs, lhs in sides)
    largest = max(float(np.max(side)) for pair in sides for side in pair)
    return CheckReport("bernoulli_steps", f"x={x},grid={len(t)}", -worst, 0.0,
                       -20.0 * 2.0 ** -53 * largest)


def check_scalar_constants() -> list[CheckReport]:
    """The four hand-checked scalar comparisons closing the three cases."""
    reports = [
        CheckReport("scalar_alpha0_x_1_3", "21/10 vs 2^(1/3) pi/sqrt(3)",
                               21.0 / 10.0, 2.0 ** (1.0 / 3.0) * math.pi / math.sqrt(3.0), 0.0),
        CheckReport("scalar_alpha1_x_1_2", "2 sqrt(2) vs pi",
                               2.0 * math.sqrt(2.0), math.pi, 0.0),
    ]
    u = 2.0 * math.pi / 5.0
    sinc = math.sin(u) / u
    taylor = 1.0 - u ** 2 / 6.0 + u ** 4 / 120.0
    rhs = 2.0 ** -0.4
    reports.append(CheckReport("scalar_sinc_2pi_5", "sin(2pi/5)/(2pi/5) vs 2^(-2/5)",
                                          sinc, rhs, 0.0, holds=sinc < taylor < rhs))
    reports.append(CheckReport(
        "scalar_alphahalf_x_2_5", "25/12 vs 2^(-3/5) pi/sin(3pi/5)",
        25.0 / 12.0, 2.0 ** -0.6 * math.pi / math.sin(3.0 * math.pi / 5.0), 0.0))
    return reports


# ---------------------------------------------------------------------------
# the default sweep

_CONVEXITY_PA = [(1.25, 0.0), (2.0, 0.5), (4.0, 1.0), (10.0, 0.5)]


def default_sweep(x_points: int = 300) -> list[CheckReport]:
    """The full certification run: scalar constants, both master inequalities
    along the alpha schedule (boundary points under both adjacent weights),
    convexity grids, midpoint bounds, F-maximum reductions, monotonicity and
    the power-majorization steps, on x_points >= 1 grid points of x, in a fixed order.

    The master inequalities are one `check_master_inequalities` call for
    all grid points, one series batch per inequality.

    The grid x_k = k/(2 x_points), together with 1/3 and 2/5 under both
    adjacent alpha, certifies both inequalities on all of (0, 1/2], not only
    at its points. Under a fixed alpha the integrands are pointwise monotone
    in x on u in (0, 1): u^(x-1) falls, u^(-x) rises, and beta' =
    (1-alpha)/(1-x)^2 >= 0. So lhs_I falls and rhs_I rises with x, and a
    pass at a cell's left end covers the cell; lhs_II rises and rhs_II
    falls, and a pass at its right end covers it. Under alpha = 0, on
    (0, 1/3], lhs_I is identically 0.
    """
    x_points = _check_count(x_points, "x_points", 1)
    reports = list(check_scalar_constants())
    x = [k / (2.0 * x_points) for k in range(1, x_points + 1)]
    alpha = [alpha_schedule(xi) for xi in x] + [0.0, 0.5, 0.5, 1.0]
    reports += check_master_inequalities(x + [1.0 / 3.0, 1.0 / 3.0, 2.0 / 5.0, 2.0 / 5.0], alpha)

    t_grid = np.geomspace(1e-3, 1e3, 100)
    for m, (p, alpha) in product((1, 2, 10, 100, 1000), _CONVEXITY_PA):
        reports.append(check_logconvexity_f(m, p, alpha, t_grid))
    y_grid = np.linspace(0.0, 0.5, 100)
    for t, (p, alpha) in product((0.1, 1.0, 10.0, 100.0, 1000.0), _CONVEXITY_PA):
        reports.append(check_logconvexity_g(t, p, alpha, y_grid))

    for m, p, alpha in ((1, 2.0, 0.0), (2, 3.0, 0.5), (5, 1.5, 1.0)):
        reports.append(check_midpoint_bound(m, p, alpha, n_max=25))
    for p, alpha in ((2.0, 0.0), (3.0, 0.5)):
        reports.append(check_F_convex_max(p, alpha, np.linspace(0.0, 0.5, 21)))

    reports.append(check_monotone_in_x(0.0, np.linspace(0.05, 1.0 / 3.0, 8)))
    reports.append(check_monotone_in_x(0.5, np.linspace(1.0 / 3.0, 0.4, 8)))
    reports.append(check_monotone_in_x(1.0, np.linspace(0.4, 0.5, 8)))
    for x in (0.2, 1.0 / 3.0, 0.5):
        reports.append(check_bernoulli_steps(x, np.geomspace(1.0, 1e4, 50)))
    return reports
