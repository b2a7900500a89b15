import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    KernelSpec,
    ParameterError,
    Sequence,
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
from hilbert_kp import kernels, norms

import oracles

# Frozen chain-bound ratios from an independent high-precision evaluation.
RATIOS_P2 = {
    0.5: 1.49288039988,
    0.1: 2.65518854689,
    0.05: 2.88386442798,
    0.01: 3.08749372763,
}
RATIO_EPS001 = {1.5: 3.5446045965, 3.0: 3.5446045965}
# epsilon_family_ratio's certified floats, (eps, p) -> value, compared bit for
# bit: a change to the series, the phi bound or their rounding moves them.
RATIO_BITS = {
    (1e-16, 1.5): 3.6275987284683286, (0.01, 1.5): 3.544604595189237,
    (0.5, 1.5): 1.5167857466912094, (1000.0, 1.5): 2.2494341296031455e-06,
    (1e-16, 2.0): 3.1415926535897003, (0.01, 2.0): 3.087493726477736,
    (0.5, 2.0): 1.4928803988190489, (1000.0, 2.0): 1.999998000008935e-06,
    (1e-16, 3.0): 3.627598728468329, (0.01, 3.0): 3.544604595189238,
    (0.5, 3.0): 1.5167857466912091, (1000.0, 3.0): 2.2494341296031455e-06,
}
# The N = 2 classical ascent fixed point solves a quadratic exactly.
ASCENT_N2_EXACT = 2.0 / 3.0 + math.sqrt(13.0) / 6.0


def phi_clipped(eps: float) -> float:
    """The phi(eps) bound `epsilon_family_ratio` divides by, clipped to [0, 1] as there."""
    return min(max(norms._phi_upper(eps), 0.0), 1.0)


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
        assert a.values.tolist() == b.values.tolist()  # p = 2 is self-conjugate

    def test_conjugate_split(self):
        a, b = epsilon_family(0.5, 3.0, 10)
        assert a.values[7] == pytest.approx(8.0 ** -0.5, rel=1e-14)
        assert b.values[7] == pytest.approx(8.0 ** -1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_family(0.0, 2.0, 5)
        with pytest.raises(ParameterError):
            epsilon_family(0.5, 2.0, 0)

    @pytest.mark.parametrize("eps", [-0.5, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(DomainError, match="eps must be finite and > 0"):
            epsilon_family(eps, 2.0, 5)


class TestEpsilonFamilyRatio:
    @pytest.mark.parametrize("eps,expected", sorted(RATIOS_P2.items()))
    def test_frozen_p2(self, eps, expected):
        ratio = epsilon_family_ratio(eps, 2.0)
        # the certified bound subtracts its quadrature budget, so agreement
        # with the raw reference is only at the tolerance level
        assert ratio == pytest.approx(expected, rel=3e-7)
        assert ratio <= expected * (1 + 1e-12)

    @pytest.mark.parametrize("eps,p", sorted(RATIO_BITS))
    def test_returns_the_frozen_float(self, eps, p):
        ratio = epsilon_family_ratio(eps, p)
        assert type(ratio) is float
        assert ratio == RATIO_BITS[eps, p]

    @pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
    def test_p_outside_the_domain(self, p):
        with pytest.raises(DomainError, match=r"p must lie in \(1, inf\)"):
            epsilon_family_ratio(0.5, p)

    def test_monotone_toward_theory(self):
        ratios = [epsilon_family_ratio(e, 2.0) for e in (0.5, 0.1, 0.05, 0.01)]
        assert ratios == sorted(ratios)
        assert all(r < math.pi for r in ratios)
        assert math.pi - ratios[-1] < 0.1

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_other_exponents(self, p):
        ratio = epsilon_family_ratio(0.01, p)
        assert ratio == pytest.approx(RATIO_EPS001[p], rel=3e-7)
        assert theoretical_norm(p) - ratio < 0.15

    def test_bounds_fields(self):
        assert 0.0 <= phi_clipped(0.1) <= 1.0

    @pytest.mark.parametrize("eps", [0.0, -0.5, -1.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(DomainError, match="eps must be finite and > 0"):
            epsilon_family_ratio(eps, 2.0)

    @pytest.mark.parametrize("p", [1.05, 2.0, 12.0])
    def test_bounds_hold_against_40_digit_reference(self, p):
        """The phi bound is at least zeta(1 + eps) - 1/eps, and the ratio at most
        eps I(eps) / (1 + eps phi), both at 40 digits. Small eps is where a
        tail written as M^(1-s)/(s-1) - 1/eps, s = fl(1 + eps), cancels:
        1/(s - 1) is not 1/eps after rounding."""
        for eps in (1e-12, 1e-9, 1e-7, 1e-3, 0.01, 0.5, 2.0, 20.0):
            assert phi_clipped(eps) >= oracles.phi(eps), eps
            assert epsilon_family_ratio(eps, p) <= oracles.epsilon_bound(eps, p), eps

    def test_reaches_tiny_eps(self):
        """The tail is summed as expm1(-eps ln(N - 1/2))/eps, in which
        nothing cancels, so phi stays near Euler's gamma as eps -> 0."""
        for eps in (1e-16, 1e-300, 5e-324):
            ratio = epsilon_family_ratio(eps, 2.0)
            assert 0.0 <= phi_clipped(eps) - 0.5772156649015329 <= 5e-8
            assert ratio == pytest.approx(math.pi, rel=1e-12)
            assert ratio < math.pi


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
        est = ascent_lower_bound(spec, 3.0, 32, 200)
        trace = est.trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_always_below_theory(self):
        for p in (1.3, 2.0, 5.0):
            spec = KernelSpec(Variant.WEIGHTED_MAIN, p=p)
            est = ascent_lower_bound(spec, p, 64, 2000)
            assert est.lower_bound < theoretical_norm(p)

    def test_deterministic(self):
        """The start is fixed, so two runs agree bit for bit."""
        spec = KernelSpec(Variant.YANG_SHIFT, p=2.5)
        e1 = ascent_lower_bound(spec, 2.5, 16, 100)
        e2 = ascent_lower_bound(spec, 2.5, 16, 100)
        assert e1.trace == e2.trace
        assert e1.lower_bound == e2.lower_bound
        # the final pair stays out of == and hash, where arrays would raise
        assert e1 == e2 and hash(e1) == hash(e2)
        assert e1.a.tolist() == e2.a.tolist() and e1.b.tolist() == e2.b.tolist()

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 6.0, 40.0])
    @pytest.mark.parametrize("N", [16, 1024, 16384])
    def test_stop_rule_ends_the_run(self, p, N):
        """The relative 1e-12 stop rule, not the cap of 2000 iterations,
        ends every run: at most 18 iterations were measured."""
        est = ascent_lower_bound(KernelSpec(Variant.WEIGHTED_MAIN, p=p), p, N)
        assert len(est.trace) <= 40

    @pytest.mark.parametrize("p", [1.001, 1000.0])
    def test_extreme_p_stays_finite(self, p):
        """At p = 1000, and at p = 1.001 where q = 1001, the ascent's images
        raised to the power p used to overflow, and a NaN entry ended the run."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = ascent_lower_bound(KernelSpec(Variant.WEIGHTED_MAIN, p=p), p, 4096)
        assert 1.0 < est.lower_bound < theoretical_norm(p)

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

    def test_a_weighted_kernel_must_carry_the_norms_p(self):
        """A WeightedMain kernel of p = 3 ascended on l^1.5 used to report a
        certified lower bound of 4.1436, above pi/sin(pi/1.5) = 3.6276. The
        classical kernel is ascended at its own p too."""
        with pytest.raises(InvalidInputError,
                           match=r"^a WeightedMain kernel must carry the norm's p=1\.5, "
                                 r"got p=3\.0$"):
            ascent_lower_bound(KernelSpec(Variant.WEIGHTED_MAIN, p=3.0), 1.5, 256)
        with pytest.raises(InvalidInputError,
                           match=r"^a Classical kernel must carry the norm's p=1\.5, "
                                 r"got p=2\.0$"):
            ascent_lower_bound(KernelSpec(Variant.CLASSICAL), 1.5, 256)
        est = ascent_lower_bound(KernelSpec(Variant.CLASSICAL, p=1.5), 1.5, 256)
        assert est.lower_bound < theoretical_norm(1.5)

    @pytest.mark.parametrize("start", [[], [[1.0, 2.0]], [1.0, -1.0], [1.0, math.nan],
                                       [math.inf, 1.0], [0.0, 0.0]])
    def test_start_validation(self, start):
        with pytest.raises(ParameterError, match="start must be a nonempty 1-D array"):
            ascent_lower_bound(KernelSpec(Variant.CLASSICAL), 2.0, 4, start=start)


class TestWarmStart:
    """A start of any length is stretched to the section, and only the
    number of half steps depends on it (Boyd: every positive start reaches
    the same maximizer)."""

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 6.0, 40.0])
    @pytest.mark.parametrize("sizes", [(256, 1024, 4096), (4096, 256), (16, 16, 17),
                                       (100, 1000, 10000)], ids=str)
    def test_warm_and_cold_bounds_agree(self, p, sizes):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=p)
        start = None
        for N in sizes:
            warm = ascent_lower_bound(spec, p, N, start=start)
            cold = ascent_lower_bound(spec, p, N)
            assert warm.lower_bound == pytest.approx(cold.lower_bound, rel=1e-11)
            assert len(warm.a) == len(warm.b) == N
            start = warm.a

    def test_rising_ladder_saves_half_steps(self):
        """The ladder of the norm_bracket benchmark, at p = 2: 20, 24 and 28
        half steps cold, 20, 14 and 16 warm on x86-64 with numpy's pocketfft."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=2.0)
        start, warm, cold = None, [], []
        for N in (256, 1024, 4096):
            est = ascent_lower_bound(spec, 2.0, N, start=start)
            start = est.a
            warm.append(len(est.trace))
            cold.append(len(ascent_lower_bound(spec, 2.0, N).trace))
        assert warm[0] == cold[0]
        assert all(w < c for w, c in zip(warm[1:], cold[1:])), (warm, cold)

    @pytest.mark.parametrize("start", [None, np.geomspace(1.0, 1e-3, 40)], ids=["cold", "warm"])
    def test_estimate_returns_the_final_pair(self, monkeypatch, start):
        """`a` and `b` are the last two vectors the alignment returned, the
        pair whose certified ratio is the bound."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        est, a, b = ascent_with_final_pair(monkeypatch, spec, 1.5, 256, start=start)
        assert est.a is a and est.b is b
        ratio, budget = kernels._ratio(spec, Sequence(1, a), Sequence(1, b))
        assert est.lower_bound == ratio - budget

    def test_a_repeated_size_starts_at_its_maximizer(self):
        """The stretch to the same length returns the start, so the second
        run stops after the fewest half steps the stop rule allows."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        first = ascent_lower_bound(spec, 3.0, 64)
        again = ascent_lower_bound(spec, 3.0, 64, start=first.a)
        assert len(again.trace) == 4
        assert norms._stretched_start(first.a, 64, 3.0) == pytest.approx(first.a, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_stretch_is_a_unit_vector_on_the_sampled_shape(self, p):
        """Sampled at m N0/N in log-log, extended below 1 by m^(-1/p) and
        scaled to the unit l^p sphere."""
        a = norms._stretched_start(np.array([8.0, 2.0]), 4, p)
        shape = np.array([8.0 * 0.5 ** (-1.0 / p), 8.0, 8.0 * (2.0 / 8.0) ** math.log2(1.5), 2.0])
        assert a == pytest.approx(shape / lp_norm(Sequence(1, shape), p), rel=1e-14)
        assert lp_norm(Sequence(1, a), p) == pytest.approx(1.0, rel=1e-15)

    def test_an_underflowed_start_entry_keeps_the_iterates_positive(self):
        """A 0.0 in the start, where a previous size's entry underflowed,
        takes no logarithm of 0: under RuntimeWarning as an error, the
        iterates stay finite and positive, up to the final pair."""
        start = np.geomspace(1.0, 1e-300, 32)
        start[[0, 7, 31]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = ascent_lower_bound(KernelSpec(Variant.WEIGHTED_MAIN, p=1.5), 1.5, 256,
                                     start=start)
        assert all(np.all(np.isfinite(x) & (x > 0.0)) for x in (est.a, est.b))
        assert all(math.isfinite(t) and t > 0.0 for t in est.trace)
        assert 0.0 < est.lower_bound < theoretical_norm(1.5)


def ascent_with_final_pair(monkeypatch, *args, **kwargs):
    """The ascent's estimate and its final unit vectors a and b, from the
    last two calls of its alignment step."""
    align = norms._dual_align_vec
    seen = []

    def recording(c, p):
        aligned = align(c, p)       # (unit vector, the norm it divided by)
        seen.append(aligned[0])
        return aligned

    monkeypatch.setattr(norms, "_dual_align_vec", recording)
    est = ascent_lower_bound(*args, **kwargs)
    return est, seen[-1], seen[-2]


class TestCertifiedAscent:
    """`lower_bound` is the final form minus an explicit rounding budget for
    the FFT correlations and every other rounding."""

    @pytest.mark.parametrize("spec", [
        KernelSpec(Variant.CLASSICAL),
        KernelSpec(Variant.WEIGHTED_MAIN, p=1.5),
        KernelSpec(Variant.YANG_SHIFT, p=3.0),
        KernelSpec(Variant.YANG_HALF_SHIFT, p=6.0),
    ], ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("N", [1, 2, 17, 64])
    def test_below_exact_ratio_of_final_pair(self, spec, N):
        est = ascent_lower_bound(spec, spec.p, N, 300)
        exact = oracles.exact_ratio(spec, est.a, est.b)
        assert est.lower_bound <= exact
        assert exact - est.lower_bound <= 2.0 * est.rounding_budget
        assert est.lower_bound <= est.trace[-1]

    def test_bound_is_the_certified_ratio_of_the_final_pair(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        est = ascent_lower_bound(spec, 1.5, 256)
        ratio, budget = kernels._ratio(spec, Sequence(1, est.a), Sequence(1, est.b))
        assert est.rounding_budget == budget
        assert est.lower_bound == ratio - budget

    def test_below_direct_convolution_at_4096(self, monkeypatch):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        est = ascent_lower_bound(spec, 1.5, 4096, 2000)
        a, b = est.a, est.b
        # 4096^2 products would cross to the form's FFT path, which shares
        # `_correlate` and `_fft_rounding` with the ascent; keep it direct
        monkeypatch.setattr(kernels, "_FFT_CROSSOVER", 1 << 25)
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
        rng = np.random.default_rng(17)
        x = np.concatenate([np.arange(0.5, 2.0 ** 18, 997.0), rng.random(300) + 0.5])
        for e in (-2.0 / 3.0, 1.0 / 3.0, 0.4, 1.5, 1.0 / 6.0, -0.6):
            ref = oracles.power(x.tolist(), e)
            worst = max(abs(g - r) / r for g, r in zip((x ** e).tolist(), ref))
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

    def test_kp_ratio_of_tiny_coefficients(self):
        """Coefficients whose cubes underflow are not the zero function: the
        ratio is that of the coefficients scaled to 1."""
        one = kp_ratio(TaylorFunction.from_values((1.0,)), 3.0, 200)
        assert kp_ratio(TaylorFunction.from_values((2.0 ** -400,)), 3.0, 200) == one
        assert kp_ratio(TaylorFunction.from_values((1e-120,)), 3.0, 200) == pytest.approx(
            one, rel=1e-14)

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
        assert epsilon_family_ratio(0.1, p) < theoretical_norm(p)
