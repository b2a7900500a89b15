"""Numerical certification of the main-inequality proof chain.

Every check evaluates both sides of one displayed inequality (or the sign of
one displayed expression) in floating point, with quadrature or series error
estimates folded into an explicit error budget. A check passes only when its
margin clears the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import DomainError
from .quadrature import F_of_y, QuadratureResult, adaptive_integrate


@dataclass(frozen=True)
class ProofCase:
    """A point (x, alpha) of the proof's parameter space, x = 1/p."""

    x: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.x <= 0.5:
            raise DomainError(f"x must lie in (0, 1/2], got {self.x}")
        if self.alpha < 0.0 or self.alpha * self.x > 1.0:
            raise DomainError(f"need 0 <= alpha*x <= 1, got alpha={self.alpha}")

    @property
    def beta(self) -> float:
        return (1.0 - self.alpha * self.x) / (1.0 - self.x)


@dataclass(frozen=True)
class CheckReport:
    name: str
    parameters: str
    lhs: float
    rhs: float
    margin: float
    error_budget: float
    passed: bool

    @staticmethod
    def from_sides(name: str, parameters: str, lhs: float, rhs: float,
                   error_budget: float) -> "CheckReport":
        margin = rhs - lhs
        return CheckReport(name, parameters, lhs, rhs, margin, error_budget,
                           margin > error_budget)


# ---------------------------------------------------------------------------
# convexity of the two log-convex factors

def logconv_f_expression(m: int, p: float, alpha: float, t):
    """(log f)'' for f(t) = t^(-1/p) (m+t)^(alpha-1) (m+t-1)^(-alpha)."""
    t = np.asarray(t, dtype=float)
    return (t ** -2.0 / p + (m + t) ** -2.0
            + alpha * ((m + t - 1.0) ** -2.0 - (m + t) ** -2.0))


def _f_row(m: int, p: float, alpha: float, t):
    t = np.asarray(t, dtype=float)
    return t ** (-1.0 / p) * (m + t) ** (alpha - 1.0) * (m + t - 1.0) ** -alpha


def check_logconvexity_f(m: int, p: float, alpha: float, t_grid) -> CheckReport:
    """Strict positivity of the displayed (log f)'' expression on the grid,
    cross-checked by the sign of a central second difference of f itself."""
    t = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("grid points must be positive")
    expr = logconv_f_expression(m, p, alpha, t)
    h = 1e-4 * np.maximum(1.0, t)
    second = _f_row(m, p, alpha, t - h) + _f_row(m, p, alpha, t + h) \
        - 2.0 * _f_row(m, p, alpha, t)
    fd_ok = bool(np.all(second > 0.0))
    report = CheckReport.from_sides(
        "logconvexity_f", f"m={m},p={p},alpha={alpha},grid={len(t)}",
        0.0, float(expr.min()), 0.0)
    if not fd_ok:
        report = replace(report, passed=False)
    return report


def logconv_g_expression(t: float, p: float, alpha: float, y):
    """(log g_t)'' for g_t(y) = (t+y)^(-1/p) (t+1+y)^(alpha-1) (t+1-y)^(-alpha)."""
    y = np.asarray(y, dtype=float)
    return ((t + y) ** -2.0 / p + (t + 1.0 + y) ** -2.0
            + alpha * ((t + 1.0 - y) ** -2.0 - (t + 1.0 + y) ** -2.0))


def _g_row(t: float, p: float, alpha: float, y):
    y = np.asarray(y, dtype=float)
    return ((t + y) ** (-1.0 / p) * (t + 1.0 + y) ** (alpha - 1.0)
            * (t + 1.0 - y) ** -alpha)


def check_logconvexity_g(t: float, p: float, alpha: float, y_grid) -> CheckReport:
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    y = np.asarray(sorted(y_grid), dtype=float)
    if np.any(y < 0.0) or np.any(y > 0.5):
        raise DomainError("y grid must lie in [0, 1/2]")
    expr = logconv_g_expression(t, p, alpha, y)
    h = 1e-4
    inner = y[(y - h >= 0.0) & (y + h <= 0.5)]
    second = _g_row(t, p, alpha, inner - h) + _g_row(t, p, alpha, inner + h) \
        - 2.0 * _g_row(t, p, alpha, inner)
    fd_ok = bool(np.all(second > 0.0)) if len(inner) else True
    report = CheckReport.from_sides(
        "logconvexity_g", f"t={t},p={p},alpha={alpha},grid={len(y)}",
        0.0, float(expr.min()), 0.0)
    if not fd_ok:
        report = replace(report, passed=False)
    return report


# ---------------------------------------------------------------------------
# midpoint bound and the F-maximum reduction

def check_midpoint_bound(m: int, p: float, alpha: float, n_max: int,
                         tol: float = 1e-12) -> CheckReport:
    """f(n) <= int_{n-1/2}^{n+1/2} f(t) dt for 1 <= n <= n_max."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    worst = None
    budget = 0.0
    for n in range(1, n_max + 1):
        res = adaptive_integrate(lambda t: _f_row(m, p, alpha, t),
                                 n - 0.5, n + 0.5, tol)
        fn = float(_f_row(m, p, alpha, np.array([float(n)]))[0])
        budget = max(budget, res.error_estimate)
        if worst is None or res.value - fn < worst[1] - worst[0]:
            worst = (fn, res.value, n)
    return CheckReport.from_sides(
        "midpoint_bound", f"m={m},p={p},alpha={alpha},n_max={n_max},worst_n={worst[2]}",
        worst[0], worst[1], budget)


def check_F_convex_max(p: float, alpha: float, y_grid,
                       tol: float = 1e-9) -> CheckReport:
    """F(y) <= max(F(0), F(1/2)) across the grid, plus discrete convexity of
    the sampled values."""
    y = np.asarray(sorted(y_grid), dtype=float)
    if np.any(y < 0.0) or np.any(y > 0.5):
        raise DomainError("y grid must lie in [0, 1/2]")
    ends = [F_of_y(0.0, p, alpha, tol), F_of_y(0.5, p, alpha, tol)]
    cap = max(r.value for r in ends)
    vals, errs = [], []
    for yi in y:
        r = F_of_y(float(yi), p, alpha, tol)
        vals.append(r.value)
        errs.append(r.error_estimate)
    budget = sum(r.error_estimate for r in ends) + max(errs)
    # divided second differences must not be significantly negative
    convex_ok = True
    for i in range(1, len(y) - 1):
        left = (vals[i] - vals[i - 1]) / (y[i] - y[i - 1])
        right = (vals[i + 1] - vals[i]) / (y[i + 1] - y[i])
        if right - left < -(errs[i - 1] + errs[i] + errs[i + 1]) / (y[i] - y[i - 1]):
            convex_ok = False
    report = CheckReport.from_sides(
        "F_convex_max", f"p={p},alpha={alpha},grid={len(y)}",
        float(max(vals)), cap + budget, 0.0)
    if not convex_ok:
        report = replace(report, passed=False)
    return report


# ---------------------------------------------------------------------------
# the two master integral inequalities, reduced to (0, 1] via t -> 1/t

_UNIT_ROUNDOFF = 2.0 ** -53


def _power_integral(x: float, s: float, z: float) -> QuadratureResult:
    """P(x, s, z) = int_0^1 u^(x-1) (1 + z u)^(-s) du for x > 0, z > 0, x+1-s > 0.

    P is (1/x) 2F1(s, x; x+1; -z), and Pfaff's transformation (DLMF 15.8.1)
    turns it into a series of positive terms:

        P = (1+z)^(-x) sum_k (a)_k / k! * w^k / (x+k),  a = x+1-s,  w = z/(1+z).

    From term K on, every term ratio is at most r = max(1, (a+K)/(K+1)) w,
    so once r < 1 the terms after t_K sum to at most t_K r/(1-r). The terms
    are summed with `math.fsum` until that tail bound falls below double
    rounding of the partial sum. The error estimate is the tail bound plus
    the rounding term (6K + 8) u P, u = 2^-53: six roundings per recurrence
    step (those of a and w included), two per term, and those of fsum, the
    power and the product. It is always positive.
    """
    a = (1.0 - s) + x
    if x <= 0.0 or z <= 0.0 or a <= 0.0:
        raise DomainError(f"need x > 0, z > 0 and x+1-s > 0, got x={x}, s={s}, z={z}")
    w = z / (1.0 + z)
    coeff, partial, k = 1.0, 0.0, 0
    terms = []
    while True:
        term = coeff / (x + k)
        terms.append(term)
        partial += term
        step = (a + k) / (k + 1.0)
        ratio = w * step if step > 1.0 else w
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * _UNIT_ROUNDOFF * partial:
            break
        coeff *= step * w
        k += 1
    value = (1.0 + z) ** -x * math.fsum(terms)
    tail = term * ratio / (1.0 - ratio)
    return QuadratureResult(value, tail + (6 * k + 8) * _UNIT_ROUNDOFF * value, k + 1)


def _difference(hi: QuadratureResult, lo: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(hi.value - lo.value, hi.error_estimate + lo.error_estimate,
                            hi.subdivisions + lo.subdivisions)


def _half(res: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(0.5 * res.value, 0.5 * res.error_estimate, res.subdivisions)


def ineq_I_lhs(x: float, alpha: float):
    """int_0^1 ((1+2u)^alpha - 1) u^(x-1)/(1+2u) du = P(x, 1-alpha, 2) - P(x, 1, 2)."""
    if alpha == 0.0:
        return None  # identically zero
    return _difference(_power_integral(x, 1.0 - alpha, 2.0), _power_integral(x, 1.0, 2.0))


def ineq_I_rhs(x: float):
    """int_0^1 u^(-x)/(2+u) du = P(1-x, 1, 1/2)/2."""
    return _half(_power_integral(1.0 - x, 1.0, 0.5))


def ineq_II_lhs(x: float, alpha: float):
    """int_0^1 ((1+2u)^beta - 1) u^(-x)/(1+2u) du = P(1-x, 1-beta, 2) - P(1-x, 1, 2)."""
    beta = ProofCase(x, alpha).beta
    return _difference(_power_integral(1.0 - x, 1.0 - beta, 2.0),
                       _power_integral(1.0 - x, 1.0, 2.0))


def ineq_II_rhs(x: float):
    """int_0^1 u^(x-1)/(2+u) du = P(x, 1, 1/2)/2."""
    return _half(_power_integral(x, 1.0, 0.5))


def check_ineq_I(case: ProofCase) -> CheckReport:
    """lhs_I < rhs_I at (x, alpha).

    Each side is built from P(c, s, z) = int_0^1 u^(c-1) (1+zu)^(-s) du
    = (1/c) 2F1(s, c; c+1; -z) = (1+z)^(-c)/c 2F1(c+1-s, c; c+1; z/(1+z))
    (Pfaff), a series of positive terms (`_power_integral`). The budget is
    the sum of the sides' error estimates, each a geometric tail bound plus
    a rounding term; that term also covers the rounding of the input 1-x.
    For fixed alpha, lhs_I does not increase with x (its integrand carries
    u^(x-1), which falls) and rhs_I does not decrease (u^(-x) rises). So a
    pass at x settles the inequality on [x, x'] for every larger x' under
    the same alpha.
    """
    lhs = ineq_I_lhs(case.x, case.alpha)
    rhs = ineq_I_rhs(case.x)
    lv, le = (0.0, 0.0) if lhs is None else (lhs.value, lhs.error_estimate)
    return CheckReport.from_sides(
        "ineq_I", f"x={case.x},alpha={case.alpha}",
        lv, rhs.value, le + rhs.error_estimate)


def check_ineq_II(case: ProofCase) -> CheckReport:
    """lhs_II < rhs_II at (x, alpha).

    Each side is built from P(c, s, z) = int_0^1 u^(c-1) (1+zu)^(-s) du
    = (1/c) 2F1(s, c; c+1; -z) = (1+z)^(-c)/c 2F1(c+1-s, c; c+1; z/(1+z))
    (Pfaff), a series of positive terms (`_power_integral`). The budget is
    the sum of the sides' error estimates, each a geometric tail bound plus
    a rounding term; that term also covers the rounding of the inputs 1-x
    and beta, which moves a side by at most about 10 u. For fixed alpha,
    lhs_II does not decrease with x (u^(-x) rises, and beta' =
    (1-alpha)/(1-x)^2 >= 0) and rhs_II does not increase (u^(x-1) falls).
    So a pass at x settles the inequality on (x', x] for every smaller x'
    under the same alpha.
    """
    lhs = ineq_II_lhs(case.x, case.alpha)
    rhs = ineq_II_rhs(case.x)
    return CheckReport.from_sides(
        "ineq_II", f"x={case.x},alpha={case.alpha},beta={case.beta}",
        lhs.value, rhs.value, lhs.error_estimate + rhs.error_estimate)


def check_monotone_in_x(alpha: float, x_grid) -> CheckReport:
    """Directionality that lets one endpoint settle a whole subinterval:
    along increasing x, the left side of the first inequality does not
    increase and its right side does not decrease; mirrored for the second."""
    xs = sorted(x_grid)
    if len(xs) < 2:
        raise DomainError("need at least two grid points")
    rows = []
    budget = 0.0
    for x in xs:
        l1 = ineq_I_lhs(x, alpha)
        r1 = ineq_I_rhs(x)
        l2 = ineq_II_lhs(x, alpha)
        r2 = ineq_II_rhs(x)
        lv = 0.0 if l1 is None else l1.value
        budget = max(budget, 2.0 * sum(
            q.error_estimate for q in (r1, l2, r2) if q is not None)
            + (0.0 if l1 is None else 2.0 * l1.error_estimate))
        rows.append((lv, r1.value, l2.value, r2.value))
    steps = []
    for prev, cur in zip(rows, rows[1:]):
        steps.append(prev[0] - cur[0])   # lhs I nonincreasing
        steps.append(cur[1] - prev[1])   # rhs I nondecreasing
        steps.append(cur[2] - prev[2])   # lhs II nondecreasing
        steps.append(prev[3] - cur[3])   # rhs II nonincreasing
    return CheckReport.from_sides(
        "monotone_in_x", f"alpha={alpha},grid={len(xs)}",
        -min(steps), 0.0, -budget)


def alpha_schedule(x: float) -> float:
    """The proof's interpolation-weight choice on the three subintervals of
    (0, 1/2]; boundary points resolve to the left-hand case."""
    if not 0.0 < x <= 0.5:
        raise DomainError(f"x must lie in (0, 1/2], got {x}")
    if x <= 1.0 / 3.0:
        return 0.0
    if x <= 2.0 / 5.0:
        return 0.5
    return 1.0


def check_bernoulli_steps(x: float, t_grid) -> CheckReport:
    """The three power-majorization steps used in the endpoint cases:
    (1+2/t)^(1/(1-x)) <= (1+2/t)(1 + (x/(1-x)) 2/t),
    (1+2/t)^(1/2)     <= 1 + 1/t,
    (1+2/t)^(4/3)     <= 1 + (4/(3 t^2))(2t+1).
    """
    if not 0.0 < x <= 0.5:
        raise DomainError(f"x must lie in (0, 1/2], got {x}")
    t = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t < 1.0):
        raise DomainError("grid points must be >= 1")
    u = 2.0 / t
    ratio = x / (1.0 - x)
    margins = np.concatenate([
        (1.0 + u) * (1.0 + ratio * u) - (1.0 + u) ** (1.0 / (1.0 - x)),
        (1.0 + 1.0 / t) - np.sqrt(1.0 + u),
        (1.0 + 4.0 / (3.0 * t ** 2) * (2.0 * t + 1.0)) - (1.0 + u) ** (4.0 / 3.0),
    ])
    # equality is attained (e.g. t = 1, x = 1/2), so allow a rounding-level slack
    worst = float(margins.min())
    return CheckReport.from_sides(
        "bernoulli_steps", f"x={x},grid={len(t)}", -worst, 0.0, -1e-12)


def check_scalar_constants() -> list[CheckReport]:
    """The four hand-checked scalar comparisons closing the three cases."""
    reports = [
        CheckReport.from_sides("scalar_alpha0_x_1_3", "21/10 vs 2^(1/3) pi/sqrt(3)",
                               21.0 / 10.0, 2.0 ** (1.0 / 3.0) * math.pi / math.sqrt(3.0), 0.0),
        CheckReport.from_sides("scalar_alpha1_x_1_2", "2 sqrt(2) vs pi",
                               2.0 * math.sqrt(2.0), math.pi, 0.0),
    ]
    u = 2.0 * math.pi / 5.0
    sinc = math.sin(u) / u
    taylor = 1.0 - u ** 2 / 6.0 + u ** 4 / 120.0
    rhs = 2.0 ** -0.4
    rep = CheckReport.from_sides("scalar_sinc_2pi_5", "sin(2pi/5)/(2pi/5) vs 2^(-2/5)",
                                 sinc, rhs, 0.0)
    if not (sinc < taylor < rhs):
        rep = replace(rep, passed=False)
    reports.append(rep)
    reports.append(CheckReport.from_sides(
        "scalar_alphahalf_x_2_5", "25/12 vs 2^(-3/5) pi/sin(3pi/5)",
        25.0 / 12.0, 2.0 ** -0.6 * math.pi / math.sin(3.0 * math.pi / 5.0), 0.0))
    return reports


# ---------------------------------------------------------------------------
# the default sweep

_CONVEXITY_PA = [(1.25, 0.0), (2.0, 0.5), (4.0, 1.0), (10.0, 0.5)]


def default_sweep(x_points: int = 300, grid_points: int = 100) -> list[CheckReport]:
    """The full certification run: scalar constants, both master inequalities
    along the alpha schedule (boundary points under both adjacent weights),
    convexity grids, midpoint bounds, F-maximum reductions, monotonicity and
    the power-majorization steps. Deterministic report order.

    Every side of the master inequalities is a Pfaff series:
    int_0^1 u^(c-1) (1+zu)^(-s) du = (1/c) 2F1(s, c; c+1; -z)
    = (1+z)^(-c)/c 2F1(c+1-s, c; c+1; z/(1+z)), whose terms are positive.
    Each check's budget is its sides' geometric tail bounds plus their
    rounding terms (`_power_integral`).

    The grid x_k = k/(2 x_points), together with 1/3 and 2/5 under both
    adjacent alpha, certifies both inequalities on all of (0, 1/2], not only
    at its points. Under a fixed alpha the integrands are pointwise monotone
    in x on u in (0, 1): u^(x-1) falls, u^(-x) rises, and beta' =
    (1-alpha)/(1-x)^2 >= 0. So lhs_I falls and rhs_I rises with x, and a
    pass at a cell's left end covers the cell; lhs_II rises and rhs_II
    falls, and a pass at its right end covers it. Under alpha = 0, on
    (0, 1/3], lhs_I is identically 0.
    """
    reports = list(check_scalar_constants())
    for k in range(1, x_points + 1):
        x = k / (2.0 * x_points)
        case = ProofCase(x, alpha_schedule(x))
        reports.append(check_ineq_I(case))
        reports.append(check_ineq_II(case))
    for x, alphas in ((1.0 / 3.0, (0.0, 0.5)), (2.0 / 5.0, (0.5, 1.0))):
        for alpha in alphas:
            case = ProofCase(x, alpha)
            reports.append(check_ineq_I(case))
            reports.append(check_ineq_II(case))

    t_grid = np.geomspace(1e-3, 1e3, grid_points)
    for m, (p, alpha) in product((1, 2, 10, 100, 1000), _CONVEXITY_PA):
        reports.append(check_logconvexity_f(m, p, alpha, t_grid))
    y_grid = np.linspace(0.0, 0.5, grid_points)
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
