import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hilbert_kp import (
    DomainError,
    F_of_y,
    ParameterError,
    QuadratureResult,
    beta_integral,
)
from hilbert_kp.quadrature import _binomial_integral, _power_integral, _scaled_I_of_epsilon

import oracles

# Reference values frozen from an independent high-precision evaluation
# (mpmath at 30 significant digits).
F_QUARTER_P3_A05 = 3.30511586410639
F_TENTH_P2_A1 = 2.75250893471751
F_HALF_P2_A0 = 1.91063323625  # = 2 arctan(sqrt 2)
I_VALUES_P2 = {
    0.5: 3.89996395519489,
    0.1: 28.1037063392438,
    0.05: 59.3523647805335,
    0.01: 310.53376919538,
}


class TestQuadratureResult:
    def test_result_validates(self):
        for estimate in (-1e-3, math.nan):
            with pytest.raises(ParameterError):
                QuadratureResult(1.0, estimate, 1)


class TestSeries:
    def test_tail_bound_is_scaled_with_the_sum(self):
        """The tail bound is summed before the factor (1+z)^(-x) <= 1 and is
        scaled with it: at (40.5, 41, 2) that factor is 5e-20, and the
        estimate stays within the rounding term and one u of the value."""
        value, estimate, terms = _power_integral([40.5], [41.0], [2.0])
        assert 0.0 < estimate[0] <= (6 * (terms[0] - 1) + 9) * 2.0 ** -53 * value[0]

    def test_a_lane_that_is_not_finite_is_named(self):
        """The terms of P(50000.5, 1, 1), the eps-family's series at eps = 1e5
        and p = 2, overflow; the call raises naming that lane, and numpy
        warns of nothing on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"x=50000\.5, s=1\.0, z=1\.0 is not finite"):
                _power_integral([0.5, 50000.5], [1.0, 1.0], [1.0, 1.0])


class TestBetaIntegral:
    def test_half(self):
        assert beta_integral(0.5).value == pytest.approx(math.pi, abs=1e-12)

    def test_third(self):
        assert beta_integral(1.0 / 3.0).value == pytest.approx(
            math.pi / math.sin(math.pi / 3.0), abs=2e-12)

    @pytest.mark.parametrize("x", [0.05, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.95])
    def test_grid(self, x):
        res = beta_integral(x)
        assert res.value == pytest.approx(math.pi / math.sin(math.pi * x), abs=1e-10)
        assert res.error_estimate <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            beta_integral(x)


class TestFofY:
    def test_alpha_half_endpoint_is_beta(self):
        # alpha = 0.3 keeps the ratio factors but at y = 0 the product
        # collapses for p = 2, alpha arbitrary only when alpha terms cancel;
        # at y = 0 and any alpha the integrand is t^(-1/p)(t+1)^(-1):
        res = F_of_y(0.0, 2.0, 0.3)
        assert res.value == pytest.approx(math.pi, abs=1e-10)

    def test_half_closed_reduction(self):
        assert F_of_y(0.5, 2.0, 0.0).value == pytest.approx(F_HALF_P2_A0, abs=1e-10)
        assert F_of_y(0.5, 2.0, 0.0).value == pytest.approx(
            2.0 * math.atan(math.sqrt(2.0)), abs=1e-10)

    def test_interior_frozen_values(self):
        assert F_of_y(0.25, 3.0, 0.5).value == pytest.approx(F_QUARTER_P3_A05, abs=1e-9)
        assert F_of_y(0.1, 2.0, 1.0).value == pytest.approx(F_TENTH_P2_A1, abs=1e-9)

    def test_continuity_near_half(self):
        # the closed reduction at y = 1/2 agrees with the raw route just below
        raw = F_of_y(0.5 - 1e-7, 2.0, 0.5).value
        closed = F_of_y(0.5, 2.0, 0.5).value
        assert raw == pytest.approx(closed, rel=1e-4)

    @pytest.mark.parametrize("y,p,alpha", [(-0.1, 2, 0), (0.6, 2, 0),
                                           (0.2, 1.0, 0), (0.2, 2, 1.5)])
    def test_domain(self, y, p, alpha):
        with pytest.raises(DomainError):
            F_of_y(y, p, alpha)


class TestIofEpsilon:
    """`_scaled_I_of_epsilon` returns eps I(eps), the value
    `epsilon_family_ratio` certifies, so I(eps) is compared times eps."""

    @pytest.mark.parametrize("eps,expected", sorted(I_VALUES_P2.items()))
    def test_frozen_values_p2(self, eps, expected):
        value, _, _ = _scaled_I_of_epsilon(eps, 2.0)
        assert value == pytest.approx(eps * expected, rel=1e-9)

    def test_approaches_theoretical_scaled(self):
        # eps*I(eps) -> pi/sin(pi/p) as eps -> 0
        for p in (1.5, 2.0, 3.0):
            v, _, _ = _scaled_I_of_epsilon(0.001, p)
            assert v == pytest.approx(math.pi / math.sin(math.pi / p), abs=2e-2)
            assert v < math.pi / math.sin(math.pi / p)

    def test_domain(self):
        with pytest.raises(DomainError):
            _scaled_I_of_epsilon(0.0, 2.0)
        for p in (1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=r"^p must lie in \(1, inf\), got"):
                _scaled_I_of_epsilon(0.1, p)
        # eps >= 1 is inside the domain: at eps = 1 both integrands are
        # 1/(1+u) on (0, 1) whatever p is, so 1 * I(1) = 2 ln 2
        for p in (1.05, 1.5, 2.0, 3.0, 6.0, 12.0):
            value, _, _ = _scaled_I_of_epsilon(1.0, p)
            assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-15)


class TestIndependentOracle:
    """Live cross-checks against the arbitrary-precision `oracles`, of the
    kind that produced the frozen module-level constants."""

    def test_beta_integral(self):
        # the closed form at 40 digits; the error estimate must bound the error
        for k in range(1, 200):
            x = k / 200.0
            res = beta_integral(x)
            assert abs(res.value - oracles.pi_over_sin(x)) <= res.error_estimate, x

    def test_F_of_y(self):
        y, p, alpha = 0.3, 2.5, 0.7
        exact = oracles.H(y, 2 * y, alpha, p)
        assert F_of_y(y, p, alpha).value == pytest.approx(float(exact), abs=1e-9)

    def test_I_of_epsilon(self):
        # eps I(eps), the two integrals without the factor 1/eps
        eps, p = 0.25, 3.0
        value, _, _ = _scaled_I_of_epsilon(eps, p)
        assert value == pytest.approx(float(oracles.eps_I(eps, p)), rel=1e-9)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 6.0, 12.0])
    def test_I_of_epsilon_estimate_bounds_error(self, p):
        # the error estimate must bound the error of eps I(eps), the certified value
        for eps in (2.0, 1.0, 0.5, 0.1, 0.05, 0.01, 0.001):
            value, estimate, _ = _scaled_I_of_epsilon(eps, p)
            assert abs(value - oracles.eps_I(eps, p)) <= estimate, eps


class TestBinomialSeriesOracle:
    """The binomial series behind F(y), the row-sum tail and the midpoint
    integrals, against 40-digit quadrature: the error estimate must bound the
    actual error at every point."""

    @pytest.mark.parametrize("p", [1.05, 2.0, 3.0, 12.0])
    def test_F_of_y(self, p):
        for alpha in (0.0, 0.5, 1.0):
            for y in (0.0, 0.01, 0.0999, 0.1, 0.25, 0.5):
                res = F_of_y(y, p, alpha)
                exact = oracles.H(y, 2 * y, alpha, p)
                assert abs(res.value - exact) <= res.error_estimate, (alpha, y)

    @pytest.mark.parametrize("p", [1.05, 2.0, 12.0])
    def test_row_sum_tail(self, p):
        """int_N^inf of the row summand of m is H(N/m, 1/m); N/m runs from
        6.4e-5 (below the 0.1 split) to 4096."""
        for alpha in (0.0, 0.5, 1.0):
            for m in (1, 7, 1000, 10 ** 6):
                for N in (64, 4096):
                    value, estimate, _ = _binomial_integral([N / m], [1.0 / m], alpha, p)
                    exact = oracles.H(Fraction(N, m), Fraction(1, m), alpha, p)
                    assert abs(value[0] - exact) <= estimate[0], (alpha, m, N)

    def test_estimate_counts_the_recurrence_rounding(self):
        """Far out (y = 1000) with x at 90 % of its bound 2(1+y)/3, J = 73
        terms come down the recurrence while G_J's series needs five, so the
        (11J + 6 + |ln y|) u rounding term of the coefficients and the
        recurrence is most of the estimate. The estimate bounds the 40-digit
        error and holds that term in full; the series' own estimates cannot
        stand in for it here."""
        y, p, u = 1000.0, 12.0, 2.0 ** -53
        x = 0.9 * 2.0 * (1.0 + y) / 3.0
        rho = x / (1.0 + y)
        J = math.ceil(math.log(u * (1.0 - rho)) / math.log(rho)) - 1
        assert J == 73
        for alpha in (0.5, 1.0):
            value, estimate, terms = _binomial_integral([y], [x], alpha, p)
            exact = oracles.H(y, x, alpha, p)
            assert abs(value[0] - exact) <= estimate[0], alpha
            assert estimate[0] >= (11 * J + 6 + math.log(y)) * u * value[0], alpha
            assert terms[0] == 5

    @pytest.mark.parametrize("y", [3000.0, 1e4, 1e6])
    def test_underflowing_top_term_raises(self, y):
        """With x at its bound 2(1+y)/3, G_J = y^(-r-J) P(...) underflows far
        out; the series raises, naming y and x, instead of dividing 0 by 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=rf"G_J underflows at y={y}, x="):
                _binomial_integral([y], [2.0 * (1.0 + y) / 3.0], 0.5, 2.0)


def _binomial_integral_reference(y, x, alpha, p):
    """`_binomial_integral` as it ran its per-point tail on numpy arrays: the
    G_J lanes by `_power_integral`, then the recurrence, the binomial
    coefficients (`np.multiply.accumulate`), the products and the sum."""
    u, r = 2.0 ** -53, 1.0 / p
    plans, lanes = [], []
    for yi, xi in zip(y, x):
        rho = 0.0 if alpha == 0.0 else xi / (1.0 + yi)
        J = 0 if rho == 0.0 else max(0, math.ceil(math.log(u * (1.0 - rho)) / math.log(rho)) - 1)
        if yi >= 0.1:
            lanes.append((J + r, 1.0 + J, 1.0 / yi))
        else:
            lanes += [(1.0 - r, 1.0 + J, 1.0), (J + r, 1.0 + J, 1.0), (1.0 - r, 1.0 + J, yi)]
        plans.append((yi, xi, rho, J))
    value, estimate, terms = _power_integral(*zip(*lanes))
    out, at = [], 0
    for yi, xi, rho, J in plans:
        log_y = abs(math.log(yi)) if yi > 0.0 else 0.0
        if yi >= 0.1:
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
        G = [float(g)]
        for k in range(J, 0, -1):
            G.append((k * G[-1] + steps[k - 1]) / (k - 1 + r))
        coef = np.multiply.accumulate(np.concatenate([[1.0], (alpha + j - 1.0) / j * xi]))
        T = coef * np.array(G[::-1])
        H = math.fsum(T.tolist())
        tail = T[-1] * (1.0 + relative) * rho / (1.0 - rho)
        out.append((H, relative * H + tail, int(terms[at:at + used].max())))
        at += used
    return tuple(np.array(v) for v in zip(*out))


class TestBinomialTail:
    def test_equals_the_array_tail(self):
        """On 320 random batches of one to five points (every sixteenth of
        40, whose G_J lanes the reference sums in the array loop and
        `_binomial_integral` by `_sum_lanes`), with y on both sides of the
        0.1 split, x up to its bound 2(1+y)/3 (J up to about 90), alpha in
        {0, 1/2, 1} or random and p in [1.05, 20], every value, estimate
        and term count has the bits of the array tail's, and each returned
        array its dtype."""
        rng = np.random.default_rng(30)
        longest = 0
        for batch in range(320):
            size = 40 if batch % 16 == 15 else int(rng.integers(1, 6))
            near = rng.random(size) < 0.5
            y = np.where(near, 0.1 * rng.random(size), 0.1 + 20.0 * rng.random(size) ** 3)
            x = 2.0 * (1.0 + y) / 3.0 * rng.random(size) ** rng.choice([0.1, 1.0, 10.0])
            alpha = (0.0, 0.5, 1.0, float(rng.random()))[batch % 4]
            p = 1.05 + 18.95 * float(rng.random())
            expected = _binomial_integral_reference(y.tolist(), x.tolist(), alpha, p)
            got = _binomial_integral(y, x, alpha, p)
            for e, g in zip(expected, got):
                assert g.dtype == e.dtype and g.tolist() == e.tolist(), (y, x, alpha, p)
            if alpha:
                rho = x / (1.0 + y)
                longest = max(longest, int(np.max(np.log(2.0 ** -53 * (1.0 - rho)) / np.log(rho))))
        assert longest >= 85
