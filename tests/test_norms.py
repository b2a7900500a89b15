import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    DegenerateInputError,
    DomainError,
    InsufficientTruncationError,
    KernelSpec,
    ParameterError,
    Sequence,
    SharpnessPoint,
    TaylorFunction,
    Variant,
    ascent_lower_bound,
    bilinear_form,
    conjugate,
    epsilon_family,
    epsilon_family_ratio,
    kp_ratio,
    lp_norm,
    pushed_epsilon_family,
    theoretical_norm,
)
from hilbert_kp import norms
from hilbert_kp.norms import default_truncation

# Frozen chain-bound ratios from an independent high-precision evaluation.
RATIOS_P2 = {
    0.5: 1.49288039988,
    0.1: 2.65518854689,
    0.05: 2.88386442798,
    0.01: 3.08749372763,
}
RATIO_EPS001 = {1.5: 3.5446045965, 3.0: 3.5446045965}
# The N = 2 classical ascent fixed point solves a quadratic exactly.
ASCENT_N2_EXACT = 2.0 / 3.0 + math.sqrt(13.0) / 6.0


def power_iteration_norm(N: int, iters: int = 20000, tol: float = 1e-14) -> float:
    """Independent spectral-norm oracle for the symmetric classical section."""
    idx = np.arange(1, N + 1, dtype=float)
    K = 1.0 / (idx[:, None] + idx[None, :] - 1.0)
    v = np.full(N, 1.0 / math.sqrt(N))
    prev = 0.0
    for _ in range(iters):
        w = K @ v
        lam = float(np.linalg.norm(w))
        v = w / lam
        if abs(lam - prev) <= tol * lam:
            break
        prev = lam
    return lam


class TestTheoreticalNorm:
    def test_p2(self):
        assert theoretical_norm(2.0) == pytest.approx(math.pi, rel=1e-15)

    def test_conjugate_symmetry(self):
        assert theoretical_norm(1.5) == pytest.approx(theoretical_norm(3.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            theoretical_norm(1.0)


class TestEpsilonFamily:
    def test_values(self):
        a, b = epsilon_family(1.0, 2.0, 4)
        assert a.values[0] == 1.0
        assert a.values[3] == pytest.approx(0.25, rel=1e-15)
        assert a.values == b.values  # p = 2 is self-conjugate

    def test_conjugate_split(self):
        a, b = epsilon_family(0.5, 3.0, 10)
        assert a.values[7] == pytest.approx(8.0 ** -0.5, rel=1e-14)
        assert b.values[7] == pytest.approx(8.0 ** -1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_family(0.0, 2.0, 5)
        with pytest.raises(ParameterError):
            epsilon_family(0.5, 2.0, 0)

    def test_default_truncation(self):
        assert default_truncation(1.0) == 1000
        assert default_truncation(0.5) == 10 ** 4
        assert default_truncation(0.01) == 10 ** 6
        assert default_truncation(1e-6) == 10 ** 6


class TestEpsilonFamilyRatio:
    @pytest.mark.parametrize("eps,expected", sorted(RATIOS_P2.items()))
    def test_frozen_p2(self, eps, expected):
        point = epsilon_family_ratio(eps, 2.0)
        # the certified bound subtracts its quadrature budget, so agreement
        # with the raw reference is only at the tolerance level
        assert point.ratio == pytest.approx(expected, rel=3e-7)
        assert point.ratio <= expected * (1 + 1e-12)

    def test_monotone_toward_theory(self):
        ratios = [epsilon_family_ratio(e, 2.0).ratio for e in (0.5, 0.1, 0.05, 0.01)]
        assert ratios == sorted(ratios)
        assert all(r < math.pi for r in ratios)
        assert math.pi - ratios[-1] < 0.1

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_other_exponents(self, p):
        point = epsilon_family_ratio(0.01, p)
        assert point.ratio == pytest.approx(RATIO_EPS001[p], rel=3e-7)
        assert theoretical_norm(p) - point.ratio < 0.15

    def test_bounds_fields(self):
        point = epsilon_family_ratio(0.1, 2.0)
        assert 0.0 <= point.phi_bound <= 1.0

    def test_small_m_rejected(self):
        with pytest.raises(InsufficientTruncationError) as info:
            epsilon_family_ratio(0.5, 2.0, M=100)
        assert info.value.minimal_m == 10 ** 4

    def test_sharpness_point_validates(self):
        with pytest.raises(ParameterError):
            SharpnessPoint(0.1, 3.0, 1.5)


class TestAscent:
    def test_n1_exact(self):
        spec = KernelSpec(Variant.CLASSICAL)
        est = ascent_lower_bound(spec, 2.0, 1, 5)
        assert est.lower_bound == pytest.approx(1.0, abs=1e-14)

    def test_n2_closed_form(self):
        spec = KernelSpec(Variant.CLASSICAL)
        est = ascent_lower_bound(spec, 2.0, 2, 500)
        assert est.lower_bound == pytest.approx(ASCENT_N2_EXACT, abs=1e-12)

    def test_matches_power_iteration(self):
        spec = KernelSpec(Variant.CLASSICAL)
        for N in (8, 64):
            est = ascent_lower_bound(spec, 2.0, N, 5000)
            assert est.lower_bound == pytest.approx(power_iteration_norm(N), abs=1e-10)

    def test_trace_nondecreasing(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        est = ascent_lower_bound(spec, 3.0, 32, 200, seed=7)
        trace = est.trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_always_below_theory(self):
        for p in (1.3, 2.0, 5.0):
            spec = KernelSpec(Variant.WEIGHTED_MAIN, p=p)
            est = ascent_lower_bound(spec, p, 64, 2000)
            assert est.lower_bound < theoretical_norm(p)

    def test_seed_reproducible(self):
        spec = KernelSpec(Variant.YANG_SHIFT, p=2.5)
        e1 = ascent_lower_bound(spec, 2.5, 16, 100, seed=42)
        e2 = ascent_lower_bound(spec, 2.5, 16, 100, seed=42)
        assert e1.trace == e2.trace

    def test_grows_with_n(self):
        spec = KernelSpec(Variant.CLASSICAL)
        vals = [ascent_lower_bound(spec, 2.0, N, 2000).lower_bound
                for N in (4, 16, 64, 256)]
        assert vals == sorted(vals)

    def test_parameter_validation(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(ParameterError):
            ascent_lower_bound(spec, 2.0, 0, 10)
        with pytest.raises(ParameterError):
            ascent_lower_bound(spec, 2.0, 4, 0)


def ascent_with_final_pair(monkeypatch, *args, **kwargs):
    """The ascent's estimate and its final unit vectors a and b, the last two
    outputs of its alignment step."""
    align = norms._dual_align_vec
    seen = []

    def recording(c, p):
        seen.append(align(c, p))
        return seen[-1]

    monkeypatch.setattr(norms, "_dual_align_vec", recording)
    est = ascent_lower_bound(*args, **kwargs)
    return est, seen[-1], seen[-2]


def exact_ratio(spec, p, a, b):
    """B(a, b)/(||a||_p ||b||_q) for the exact kernel, in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        P, r = mpmath.mpf(p), mpmath.mpf(spec.p)
        e, alpha = 1 - 2 / r, mpmath.mpf(spec.alpha)     # e = 1/q - 1/p

        def k(m, n):
            s = m + n
            if spec.variant is Variant.CLASSICAL:
                return 1 / mpmath.mpf(s - 1)
            if spec.variant is Variant.WEIGHTED_MAIN:
                return mpmath.mpf(n) ** e / mpmath.mpf(m) ** e / (s - 1)
            if spec.variant is Variant.YANG_SHIFT:
                return mpmath.mpf(n) ** e / mpmath.mpf(m) ** e / s
            if spec.variant is Variant.YANG_HALF_SHIFT:
                return mpmath.mpf(2 * n - 1) ** e / mpmath.mpf(2 * m - 1) ** e / (s - 1)
            return ((mpmath.mpf(m) / n) ** (1 / r)
                    / (mpmath.mpf(s) ** (1 - alpha) * mpmath.mpf(s - 1) ** alpha))

        A = [mpmath.mpf(float(x)) for x in a]
        B = [mpmath.mpf(float(y)) for y in b]
        form = mpmath.fsum(k(m, n) * A[m - 1] * B[n - 1]
                           for m in range(1, len(A) + 1) for n in range(1, len(B) + 1))
        norm_a = mpmath.fsum(x ** P for x in A) ** (1 / P)
        Q = P / (P - 1)
        norm_b = mpmath.fsum(y ** Q for y in B) ** (1 / Q)
        return form / (norm_a * norm_b)


class TestCertifiedAscent:
    """`lower_bound` is the final form minus an explicit rounding budget for
    the FFT correlations and every other rounding."""

    @pytest.mark.parametrize("spec", [
        KernelSpec(Variant.CLASSICAL),
        KernelSpec(Variant.WEIGHTED_MAIN, p=1.5),
        KernelSpec(Variant.YANG_SHIFT, p=3.0),
        KernelSpec(Variant.YANG_HALF_SHIFT, p=6.0),
        KernelSpec(Variant.ALPHA_ROW, p=2.5, alpha=0.4),
    ], ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("N,seed", [(1, None), (2, 3), (17, None), (64, 5)])
    def test_below_exact_ratio_of_final_pair(self, monkeypatch, spec, N, seed):
        p = 2.0 if spec.variant is Variant.CLASSICAL else spec.p
        est, a, b = ascent_with_final_pair(monkeypatch, spec, p, N, 300, seed=seed)
        exact = float(exact_ratio(spec, p, a, b))
        assert est.lower_bound <= exact
        assert exact - est.lower_bound <= 2.0 * est.rounding_budget
        assert est.lower_bound <= est.trace[-1]

    def test_below_direct_convolution_at_4096(self, monkeypatch):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        est, a, b = ascent_with_final_pair(monkeypatch, spec, 1.5, 4096, 2000)
        direct = (bilinear_form(spec, Sequence(1, tuple(a)), Sequence(1, tuple(b)))
                  / (lp_norm(Sequence(1, tuple(a)), 1.5) * lp_norm(Sequence(1, tuple(b)), 3.0)))
        assert est.lower_bound <= direct
        assert direct - est.lower_bound <= 1e-9 * direct
        assert est.lower_bound <= est.trace[-1]

    def test_memory_linear_in_n(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        tracemalloc.start()
        try:
            est = ascent_lower_bound(spec, 1.5, 1 << 16, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        assert est.lower_bound < theoretical_norm(1.5)

    def test_numpy_power_within_two_units(self):
        """The budget takes each power to within 2u = 2^-52 relative."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        x = np.concatenate([np.arange(0.5, 2.0 ** 18, 997.0), rng.random(300) + 0.5])
        for e in (-2.0 / 3.0, 1.0 / 3.0, 0.4, 1.5, 1.0 / 6.0, -0.6):
            got = x ** e
            with mpmath.workdps(30):
                ref = [mpmath.mpf(float(t)) ** mpmath.mpf(e) for t in x]
                worst = max(abs(mpmath.mpf(float(g)) / r - 1) for g, r in zip(got, ref))
            assert worst <= 2.0 ** -52, e


class TestKpSide:
    def test_kp_ratio_constant(self):
        # frozen: f = (1), p = 2, n_max = 2000
        f = TaylorFunction.from_values((1.0,))
        assert kp_ratio(f, 2.0, 2000) == pytest.approx(1.28235503725668, rel=1e-10)
        # the untruncated value is pi/sqrt(6); truncation stays below it
        assert kp_ratio(f, 2.0, 2000) < math.pi / math.sqrt(6.0)

    def test_kp_ratio_below_norm(self):
        rng = np.random.Generator(np.random.Philox(3))
        for p in (1.5, 2.0, 3.0):
            cap = theoretical_norm(p)
            for _ in range(20):
                vals = tuple(rng.random(12))
                f = TaylorFunction.from_values(vals)
                assert kp_ratio(f, p, 400) <= cap + 1e-9

    def test_kp_ratio_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            kp_ratio(TaylorFunction.from_values((0.0,)), 2.0, 10)

    def test_pushed_family_norm(self):
        # the pull-back preserves the l^p norm as a K^p norm
        from hilbert_kp import kp_norm
        a, _ = epsilon_family(0.2, 3.0, 500)
        f = pushed_epsilon_family(0.2, 3.0, 500)
        assert kp_norm(f, 3.0) == pytest.approx(lp_norm(a, 3.0), rel=1e-13)

    @given(st.floats(1.2, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_sharpness_below_theory(self, p):
        point = epsilon_family_ratio(0.1, p)
        assert point.ratio < theoretical_norm(p)
