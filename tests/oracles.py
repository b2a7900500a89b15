"""The tests' arbitrary-precision references, the only code under tests/ that
uses mpmath. One function per quantity: each converts its floats, ints or
`Fraction`s itself and returns mpmath numbers (`exact_ratio` a float). A
test only rounds one to a float, compares it with one, subtracts it from
one, or divides that difference by it; mpmath's default 53 bits round each such step relative to
its result, so any other combination of references is formed here at 40
digits. Each imports mpmath by `pytest.importorskip`, so without it exactly
the tests that call one skip. None reads the library: kernels follow the
paper's formulas per `Variant`, not `kernels._SHAPES` or `KernelSpec.shape()`.
"""

from fractions import Fraction

import pytest

from hilbert_kp import Variant


def _mpf(mp, v):
    """A float, int or `Fraction` as an mpf, rounded at most once."""
    v = Fraction(v)
    return mp.mpf(v.numerator) / v.denominator


def kernel(spec, m, n):
    """k(m, n) of spec at 40 digits, with e = 1/q - 1/p = 1 - 2/p exact."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, n, e = mp.mpf(m), mp.mpf(n), 1 - 2 / mp.mpf(spec.p)
        if spec.variant is Variant.CLASSICAL:
            return 1 / (m + n - 1)
        if spec.variant is Variant.WEIGHTED_MAIN:
            return (n / m) ** e / (m + n - 1)
        if spec.variant is Variant.YANG_SHIFT:
            return (n / m) ** e / (m + n)
        if spec.variant is Variant.YANG_HALF_SHIFT:
            return ((2 * n - 1) / (2 * m - 1)) ** e / (m + n - 1)
        raise AssertionError(spec.variant)


def _entries(x):  # (index, entry) pairs of a dict, or of dense entries on 1, 2, ...
    return [(m, float(v)) for m, v in (x.items() if isinstance(x, dict) else enumerate(x, 1))]


def exact_form(spec, a, b):
    """sum_{m,n} k(m, n) a_m b_n at 40 digits, on sparse (dict) or dense entries."""
    mp = pytest.importorskip("mpmath")
    A, B = _entries(a), _entries(b)
    with mp.workdps(40):
        return mp.fsum(kernel(spec, m, n) * x * y for m, x in A for n, y in B)


def exact_ratio(spec, a, b) -> float:
    """The form over ||a||_p ||b||_q at 40 digits, p = spec.p and q = p/(p - 1)
    exact, as a float."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        P = mp.mpf(spec.p)
        Q = P / (P - 1)
        norm_a = mp.fsum(mp.mpf(x) ** P for _, x in _entries(a)) ** (1 / P)
        norm_b = mp.fsum(mp.mpf(y) ** Q for _, y in _entries(b)) ** (1 / Q)
        return float(exact_form(spec, a, b) / (norm_a * norm_b))


def power_integral(c, s, z):
    """P(c, s, z) = int_0^1 u^(c-1) (1 + z u)^(-s) du = 2F1(s, c; c+1; -z)/c at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        c, s, z = (_mpf(mp, v) for v in (c, s, z))
        return mp.hyp2f1(s, c, c + 1, -z) / c


def master_sides(x, alpha):
    """(lhs_I, rhs_I, lhs_II, rhs_II) of the master inequalities I and II from
    P(c, s, z), all at 40 digits, with 1-x and beta = (1 - alpha x)/(1-x) exact."""
    mp = pytest.importorskip("mpmath")
    x, alpha = Fraction(x), Fraction(alpha)
    c, beta = 1 - x, (1 - alpha * x) / (1 - x)
    P = power_integral
    with mp.workdps(40):
        return (P(x, 1 - alpha, 2) - P(x, 1, 2), P(c, 1, 0.5) / 2,
                P(c, 1 - beta, 2) - P(c, 1, 2), P(x, 1, 0.5) / 2)


def H(y, x, alpha, p):
    """int_y^inf s^(-r) (1+s)^(-1) (1 - x/(1+s))^(-alpha) ds, r = 1/p, at 40
    digits after s = e^v, which decays exponentially at both ends; F(y) is
    H(y, 2y, alpha, p). y and x may be `Fraction`s, taken exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        y, x, alpha = (_mpf(mp, v) for v in (y, x, alpha))
        r = 1 / _mpf(mp, p)

        def f(v):
            s = mp.exp(v)
            return s ** (1 - r) / (1 + s) * (1 - x / (1 + s)) ** -alpha

        lo = mp.log(y) if y else -mp.inf
        return mp.quad(f, [lo] + [v for v in (-8, -2, 0, 2, 8, 30) if v > lo] + [mp.inf])


def row_sum(m, p, alpha, N0=64):
    """sum_{n>=1} (m/n)^(1/p) (m+n)^(alpha-1) (m+n-1)^(-alpha) at 30 digits: the
    head n < N0 summed, the tail by Euler-Maclaurin (`sumem`) given the integral
    over [N0, inf), taken after t = N0 u^(-p) (bounded) and split where t = m."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        m, p, alpha = mp.mpf(m), mp.mpf(p), mp.mpf(alpha)

        def f(n):
            return (m / n) ** (1 / p) * (m + n) ** (alpha - 1) * (m + n - 1) ** -alpha

        head = mp.fsum(f(mp.mpf(n)) for n in range(1, N0))
        knee = (N0 / m) ** (1 / p)
        integral = mp.quad(lambda u: f(N0 * u ** -p) * p * N0 * u ** (-p - 1),
                           [0, knee, 1] if knee < 1 else [0, 1])
        return head + mp.sumem(f, [N0, mp.inf], integral=integral)


def eps_I(eps, p):
    """eps I(eps) at 40 digits, by int_0^1 u^(c-1)/(1+u) du = Phi(-1, 1, c) (Lerch)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        eps, r = mp.mpf(eps), 1 / mp.mpf(p)
        return mp.lerchphi(-1, 1, r + eps * (1 - r)) + mp.lerchphi(-1, 1, 1 - (1 - eps) * r)


def phi(eps):
    """phi(eps) = sum_{m>=1} m^(-1-eps) - 1/eps = zeta(1 + eps) - 1/eps at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return mp.zeta(1 + mp.mpf(eps)) - 1 / mp.mpf(eps)


def epsilon_bound(eps, p):
    """eps I(eps) / (1 + eps phi(eps)), the eps-family ratio's bound, at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return eps_I(eps, p) / (1 + mp.mpf(eps) * phi(eps))


def pi_over_sin(x):
    """pi/sin(pi x) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return mp.pi / mp.sin(mp.pi * mp.mpf(x))


def midpoint_integral(m, p, alpha, n):
    """int_{n-1/2}^{n+1/2} t^(-1/p) (m+t)^(alpha-1) (m+t-1)^(-alpha) dt at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, r, alpha, n = mp.mpf(m), 1 / mp.mpf(p), mp.mpf(alpha), mp.mpf(n)
        return mp.quad(lambda t: t ** -r * (m + t) ** (alpha - 1) * (m + t - 1) ** -alpha,
                       [n - 0.5, n + 0.5])


def power(xs, e):
    """[x^e for x in xs] at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return [mp.mpf(x) ** mp.mpf(e) for x in xs]
