import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    AccuracyError,
    DomainError,
    F_of_y,
    I_of_epsilon,
    ParameterError,
    QuadratureResult,
    adaptive_integrate,
    beta_integral,
)

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


class TestAdaptive:
    def test_polynomial_exact_on_one_panel(self):
        res = adaptive_integrate(lambda t: 3.0 * t * t, 0.0, 2.0, 1e-12)
        assert res.value == pytest.approx(8.0, abs=1e-13)
        assert res.subdivisions == 1

    def test_oscillatory(self):
        res = adaptive_integrate(lambda t: np.sin(50.0 * t), 0.0, math.pi, 1e-12)
        exact = (1.0 - math.cos(50.0 * math.pi)) / 50.0
        assert res.value == pytest.approx(exact, abs=1e-11)
        assert res.error_estimate <= 1e-11

    def test_singularity_lo(self):
        res = adaptive_integrate(lambda t: t ** -0.5, 0.0, 1.0, 1e-12,
                                 singularity=("lo", 0.5))
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_singularity_hi(self):
        res = adaptive_integrate(lambda t: (1.0 - t) ** (-1.0 / 3.0), 0.0, 1.0,
                                 1e-12, singularity=("hi", 1.0 / 3.0))
        assert res.value == pytest.approx(1.5, abs=1e-12)

    def test_harmless_hint(self):
        # a bounded integrand with a singularity hint still comes out right
        res = adaptive_integrate(lambda t: t, 0.0, 1.0, 1e-12,
                                 singularity=("lo", 0.5))
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_error_estimate_honest(self):
        res = adaptive_integrate(lambda t: np.exp(-t) * np.cos(3.0 * t),
                                 0.0, 5.0, 1e-10)
        exact = (1.0 - math.exp(-5.0) * (math.cos(15.0) - 3.0 * math.sin(15.0))) / 10.0
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13)

    def test_accuracy_error_carries_estimate(self):
        with pytest.raises(AccuracyError) as info:
            adaptive_integrate(lambda t: np.abs(t) ** -0.999, 1e-300, 1.0,
                               1e-14, max_panels=8)
        assert info.value.error_estimate > 1e-14
        assert math.isfinite(info.value.value)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf)])
    def test_bad_interval(self, lo, hi):
        with pytest.raises(ParameterError):
            adaptive_integrate(lambda t: t, lo, hi, 1e-8)

    def test_bad_singularity(self):
        with pytest.raises(ParameterError):
            adaptive_integrate(lambda t: t, 0.0, 1.0, 1e-8, singularity=("lo", 1.5))
        with pytest.raises(ParameterError):
            adaptive_integrate(lambda t: t, 0.0, 1.0, 1e-8, singularity=("mid", 0.5))

    def test_result_validates(self):
        with pytest.raises(ParameterError):
            QuadratureResult(1.0, -1e-3, 1)

    @given(st.floats(0.1, 3.0), st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_exponential_moments(self, a, width):
        res = adaptive_integrate(lambda t: np.exp(-a * t), 0.0, width, 1e-12)
        exact = (1.0 - math.exp(-a * width)) / a
        assert res.value == pytest.approx(exact, abs=1e-11)


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
    @pytest.mark.parametrize("eps,expected", sorted(I_VALUES_P2.items()))
    def test_frozen_values_p2(self, eps, expected):
        res = I_of_epsilon(eps, 2.0)
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_approaches_theoretical_scaled(self):
        # eps*I(eps) -> pi/sin(pi/p) as eps -> 0
        for p in (1.5, 2.0, 3.0):
            v = 0.001 * I_of_epsilon(0.001, p).value
            assert v == pytest.approx(math.pi / math.sin(math.pi / p), abs=2e-2)
            assert v < math.pi / math.sin(math.pi / p)

    def test_domain(self):
        with pytest.raises(DomainError):
            I_of_epsilon(0.0, 2.0)
        with pytest.raises(DomainError):
            I_of_epsilon(1.0, 2.0)    # x-integral diverges
        with pytest.raises(DomainError):
            I_of_epsilon(0.1, 1.0)


@pytest.mark.parametrize("integral,args,where,share", [
    (F_of_y, (0.0, 2.0, 0.3), r"F\(y\) at y=0\.0, p=2\.0, alpha=0\.3", "5e-17"),
], ids=["F_of_y"])
def test_accuracy_error_names_the_requested_tol(integral, args, where, share):
    # each half is integrated to a share of tol; the error still names tol
    with pytest.raises(AccuracyError, match=rf"^{where}: tolerance 1e-16 not reached") as info:
        integral(*args, 1e-16)
    assert share not in str(info.value)
    assert info.value.error_estimate > 0.5e-16
    assert math.isfinite(info.value.value)


mpmath = pytest.importorskip("mpmath")


class TestIndependentOracle:
    """Live cross-checks against arbitrary-precision quadrature; the same
    oracle produced the frozen module-level constants."""

    def test_beta_integral(self):
        # the closed form at 40 digits; the error estimate must bound the error
        with mpmath.workdps(40):
            for k in range(1, 200):
                x = k / 200.0
                res = beta_integral(x)
                exact = mpmath.pi / mpmath.sin(mpmath.pi * mpmath.mpf(x))
                assert abs(res.value - exact) <= res.error_estimate, x

    def test_F_of_y(self):
        y, p, alpha = 0.3, 2.5, 0.7
        with mpmath.workdps(30):
            exact = mpmath.quad(
                lambda t: (t + y) ** (-1.0 / p) * (t + 1.0 + y) ** (alpha - 1.0)
                * (t + 1.0 - y) ** -alpha,
                [0, 1, mpmath.inf])
        assert F_of_y(y, p, alpha).value == pytest.approx(float(exact), abs=1e-9)

    def test_I_of_epsilon(self):
        eps, p = 0.25, 3.0
        q = p / (p - 1.0)
        with mpmath.workdps(30):
            exact = (mpmath.quad(lambda y: y ** (-(1.0 / p + eps / q)) / (1.0 + y),
                                 [1, mpmath.inf])
                     + mpmath.quad(lambda x: x ** (-(1.0 - eps) / p) / (1.0 + x),
                                   [0, 1])) / eps
        assert I_of_epsilon(eps, p).value == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 6.0, 12.0])
    def test_I_of_epsilon_estimate_bounds_error(self, p):
        # int_0^1 u^(c-1)/(1+u) du = Phi(-1, 1, c) at 40 digits; the error
        # estimate must bound the error
        with mpmath.workdps(40):
            mp = mpmath.mpf(p)
            for eps in (0.5, 0.1, 0.05, 0.01, 0.001):
                me = mpmath.mpf(eps)
                exact = (mpmath.lerchphi(-1, 1, 1 / mp + me * (1 - 1 / mp))
                         + mpmath.lerchphi(-1, 1, 1 - (1 - me) / mp)) / me
                res = I_of_epsilon(eps, p)
                assert abs(res.value - exact) <= res.error_estimate, eps
