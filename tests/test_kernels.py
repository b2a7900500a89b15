import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    DomainError,
    InvalidInputError,
    KernelSpec,
    ParameterError,
    Sequence,
    Variant,
    apply_operator,
    bilinear_form,
    conjugate,
    kernel_value,
    lp_norm,
    row_sum_alpha,
    theoretical_norm,
)
from hilbert_kp.kernels import _correlate, _fft_rounding, _hankel, kernel_matrix

ROW_SUM_M1_P2_A0 = 1.8600250792  # frozen independent evaluation

nonneg_entry = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
nonneg_values = st.lists(nonneg_entry, min_size=1, max_size=25)

ONE_OF_EACH = [
    KernelSpec(Variant.CLASSICAL),
    KernelSpec(Variant.WEIGHTED_MAIN, p=1.3),
    KernelSpec(Variant.YANG_SHIFT, p=3.0),
    KernelSpec(Variant.YANG_HALF_SHIFT, p=6.0),
    KernelSpec(Variant.ALPHA_ROW, p=2.5, alpha=0.4),
]


def seq(*values):
    return Sequence(1, tuple(float(v) for v in values))


class TestKernelValues:
    def test_classical_corner(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert kernel_value(spec, 1, 1) == 1.0
        assert kernel_value(spec, 2, 3) == pytest.approx(0.25, abs=1e-16)

    def test_weighted_main_formula(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        e = 1.0 / 1.5 - 1.0 / 3.0
        assert kernel_value(spec, 2, 5) == pytest.approx(
            (5.0 / 2.0) ** e / 6.0, rel=1e-14)

    def test_yang_shift_formula(self):
        spec = KernelSpec(Variant.YANG_SHIFT, p=4.0)
        e = 0.75 - 0.25
        assert kernel_value(spec, 3, 2) == pytest.approx(
            (2.0 / 3.0) ** e / 5.0, rel=1e-14)

    def test_yang_half_shift_formula(self):
        spec = KernelSpec(Variant.YANG_HALF_SHIFT, p=4.0)
        assert kernel_value(spec, 1, 2) == pytest.approx(
            3.0 ** 0.5 / 2.0, rel=1e-14)

    def test_alpha_row_formula(self):
        spec = KernelSpec(Variant.ALPHA_ROW, p=2.0, alpha=0.5)
        assert kernel_value(spec, 2, 2) == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), rel=1e-14)

    @pytest.mark.parametrize("variant", [Variant.WEIGHTED_MAIN, Variant.YANG_SHIFT,
                                         Variant.YANG_HALF_SHIFT])
    def test_p2_collapse_bitwise(self, variant):
        """Every weighted variant reduces exactly to its unweighted shape at
        p = 2 (exponent snapped to 0.0)."""
        spec = KernelSpec(variant, p=2.0)
        m = np.arange(1, 40)
        n = np.arange(1, 40)
        K = kernel_matrix(spec, m, n)
        shift = 0.0 if variant is Variant.YANG_SHIFT else -1.0
        expected = 1.0 / (m[:, None] + n[None, :] + shift)
        assert np.array_equal(K, expected)

    def test_p2_near_miss_snap(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=2.0 + 1e-16)
        assert spec.weight_exponent() == 0.0

    def test_symmetry_classical(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert kernel_value(spec, 4, 9) == kernel_value(spec, 9, 4)

    def test_positivity(self):
        for variant in Variant:
            spec = KernelSpec(variant, p=1.2, alpha=0.5)
            K = kernel_matrix(spec, np.arange(1, 30), np.arange(1, 30))
            assert np.all(K > 0.0)
            assert np.all(np.isfinite(K))

    def test_large_indices_no_overflow(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.01)
        v = kernel_value(spec, 1, 10 ** 15)
        assert math.isfinite(v) and v > 0.0

    def test_invalid_indices(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(InvalidInputError):
            kernel_value(spec, 0, 1)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            KernelSpec(Variant.WEIGHTED_MAIN, p=1.0)
        with pytest.raises(DomainError):
            KernelSpec(Variant.ALPHA_ROW, p=2.0, alpha=1.5)

    def test_serialize(self):
        spec = KernelSpec(Variant.YANG_SHIFT, p=3.0, alpha=0.0)
        assert spec.serialize() == "YangShift,3.0,0.0"


class TestBilinearForm:
    def test_single_pair(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert bilinear_form(spec, seq(2), seq(3)) == 6.0

    def test_two_by_two(self):
        # ones against ones: 1/1 + 1/2 + 1/2 + 1/3 = 7/3
        spec = KernelSpec(Variant.CLASSICAL)
        assert bilinear_form(spec, seq(1, 1), seq(1, 1)) == pytest.approx(
            7.0 / 3.0, rel=1e-15)

    def test_zero_sequence(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert bilinear_form(spec, seq(0, 0), seq(1, 1)) == 0.0

    def test_rejects_negative(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(InvalidInputError):
            bilinear_form(spec, seq(1, -1), seq(1))

    def test_rejects_zero_based(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(InvalidInputError):
            bilinear_form(spec, Sequence(0, (1.0,)), seq(1))

    @given(nonneg_values, nonneg_values, st.floats(1.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_theoretical(self, a_vals, b_vals, p):
        """The main inequality on random nonnegative pairs."""
        a, b = seq(*a_vals), seq(*b_vals)
        if a.is_zero() or b.is_zero():
            return
        q = conjugate(p).q
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=p)
        value = bilinear_form(spec, a, b)
        assert value <= theoretical_norm(p) * lp_norm(a, p) * lp_norm(b, q) * (1 + 1e-12)

    @given(nonneg_values, nonneg_values)
    @settings(max_examples=100, deadline=None)
    def test_variant_domination(self, a_vals, b_vals):
        """Pointwise 1/(m+n) <= 1/(m+n-1) transfers to the forms."""
        a, b = seq(*a_vals), seq(*b_vals)
        spec_shift = KernelSpec(Variant.YANG_SHIFT, p=3.0)
        spec_main = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        assert bilinear_form(spec_shift, a, b) <= \
            bilinear_form(spec_main, a, b) * (1 + 1e-12) + 1e-300


class TestApplyOperator:
    def test_matches_rowwise(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        a = seq(1, 0, 2, 0.5)
        out = apply_operator(spec, a, 6)
        for n in range(1, 7):
            expected = sum(kernel_value(spec, m, n) * v
                           for m, v in zip(a.indices(), a.values))
            assert out.values[n - 1] == pytest.approx(expected, rel=1e-13)

    def test_pairing_consistency(self):
        spec = KernelSpec(Variant.CLASSICAL)
        a, b = seq(1, 2, 3), seq(0.5, 0.25)
        c = apply_operator(spec, a, len(b))
        pairing = sum(x * y for x, y in zip(c.values, b.values))
        assert pairing == pytest.approx(bilinear_form(spec, a, b), rel=1e-14)

    def test_bad_n_max(self):
        with pytest.raises(ParameterError):
            apply_operator(KernelSpec(Variant.CLASSICAL), seq(1), 0)


def sparse_support(rng, size, lead=0, trail=0):
    """Entries in [0, 1), about 70 % nonzero, with forced zero runs at both
    ends."""
    x = rng.random(size) * (rng.random(size) < 0.7)
    x[:lead] = 0.0
    x[size - trail:] = 0.0
    return x


def dense_form(spec, a, b):
    """The form from the dense kernel grid, the independent reference."""
    K = kernel_matrix(spec, np.arange(1, len(a) + 1), np.arange(1, len(b) + 1))
    return math.fsum(np.asarray(a) * (K @ np.asarray(b)))


def exact_kernel(spec, m, n):
    """The kernel formula in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m, n, p = mpmath.mpf(m), mpmath.mpf(n), mpmath.mpf(spec.p)
        e = 1 - 2 / p                     # 1/q - 1/p
        s = m + n
        if spec.variant is Variant.CLASSICAL:
            return 1 / (s - 1)
        if spec.variant is Variant.WEIGHTED_MAIN:
            return (n / m) ** e / (s - 1)
        if spec.variant is Variant.YANG_SHIFT:
            return (n / m) ** e / s
        if spec.variant is Variant.YANG_HALF_SHIFT:
            return ((2 * n - 1) / (2 * m - 1)) ** e / (s - 1)
        alpha = mpmath.mpf(spec.alpha)
        return (m / n) ** (1 / p) / (s ** (1 - alpha) * (s - 1) ** alpha)


class TestHankelCore:
    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    def test_factorisation(self, spec):
        """k(m, n) = w(m) v(n) h(m+n) on a grid out to index 2000."""
        idx = np.unique(np.geomspace(1, 2000, 60).round())
        m, n = idx[:, None], idx[None, :]
        w, v, h = _hankel(spec, m, n, m + n)
        K = kernel_matrix(spec, idx, idx)
        np.testing.assert_allclose(w * v * h, K, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("size_a,size_b,lead,trail", [
        (2000, 2000, 0, 0),
        (2000, 37, 0, 5),
        (3, 1500, 1, 0),
        (900, 2000, 100, 300),
    ])
    def test_form_matches_dense_grid(self, spec, size_a, size_b, lead, trail):
        rng = np.random.default_rng([size_a, size_b, lead, trail])
        a = sparse_support(rng, size_a, lead, trail)
        b = sparse_support(rng, size_b, trail, lead)
        a[lead] = b[-1 - lead] = 0.5            # never all zero
        got = bilinear_form(spec, Sequence(1, tuple(a)), Sequence(1, tuple(b)))
        ref = dense_form(spec, a, b)
        assert abs(got - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("spec", ONE_OF_EACH + [KernelSpec(Variant.WEIGHTED_MAIN, p=1.05)],
                             ids=lambda s: f"{s.variant.value}-{s.p}")
    def test_single_entries_and_far_spikes(self, spec):
        """One or two products per form. Here the dense grid's own exp/log
        rounding grows with |log(n/m)| (up to ~1.1e-15 at p = 1.05), so the
        reference is the 40-digit kernel formula; a few roundings per factor
        give the bound."""
        cases = [({1: 1.0}, {1: 1.0}), ({2000: 0.3}, {1: 1.7}), ({1: 2.5}, {1999: 0.25}),
                 ({1: 1.0, 2000: 2.0}, {1: 3.0, 2000: 0.5})]
        for a_entries, b_entries in cases:
            a = np.zeros(max(a_entries))
            b = np.zeros(max(b_entries))
            for m, x in a_entries.items():
                a[m - 1] = x
            for n, y in b_entries.items():
                b[n - 1] = y
            got = bilinear_form(spec, Sequence(1, tuple(a)), Sequence(1, tuple(b)))
            ref = float(sum(exact_kernel(spec, m, n) * x * y
                            for m, x in a_entries.items() for n, y in b_entries.items()))
            assert abs(got - ref) <= 2e-15 * ref, (a_entries, b_entries)

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    def test_all_zero_inputs(self, spec):
        zero, empty, one = seq(0, 0, 0), Sequence(1, ()), seq(0, 1)
        for a, b in [(zero, one), (one, zero), (zero, zero), (empty, one), (one, empty)]:
            assert bilinear_form(spec, a, b) == 0.0
        assert apply_operator(spec, zero, 4).values == (0.0,) * 4
        assert apply_operator(spec, empty, 2).values == (0.0,) * 2

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("size,n_max", [(1, 1), (500, 7), (300, 2000), (1200, 1200)])
    def test_operator_matches_dense_grid(self, spec, size, n_max):
        rng = np.random.default_rng([size, n_max])
        a = sparse_support(rng, size, size // 10, size // 5)
        a[-1] = 1.0
        got = np.array(apply_operator(spec, Sequence(1, tuple(a)), n_max).values)
        ref = a @ kernel_matrix(spec, np.arange(1, size + 1), np.arange(1, n_max + 1))
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


class TestFftCorrelation:
    """The ascent's two products, K^T a = v (h corr wa) and K b = w (h corr vb),
    by FFT against the dense grid accumulated in extended precision."""

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("N", [1, 2, 3, 17, 1000, 2048])
    def test_matches_dense_grid(self, spec, N):
        rng = np.random.default_rng([N, 11])
        idx = np.arange(1.0, N + 1.0)
        w, v, h = _hankel(spec, idx, idx, np.arange(2.0, 2.0 * N + 1.0))
        L = 1 << max(1, (2 * N - 2).bit_length())
        spectrum = np.fft.rfft(h, L)
        K = kernel_matrix(spec, idx, idx).astype(np.longdouble)
        a, b = rng.random(N) + 0.5, rng.random(N)
        for x, outer, inner, dense in ((a, v, w, K.T @ a), (b, w, v, K @ b)):
            y = inner * x
            got = outer * _correlate(spectrum, y)
            ref = dense.astype(float)
            fft_bound = outer * _fft_rounding(L) * max(np.linalg.norm(h) * y.sum(),
                                                       h.sum() * np.linalg.norm(y))
            # the grid's exp/log (within 1.7e-15) and the factors w, v, h
            # (within (10 + 2 ln 2N) u) differ from the exact kernel
            err = np.abs(got - ref)
            assert np.all(err <= fft_bound + 8e-15 * ref)
            assert np.all(err <= 1e-13 * ref)


def row_sum_reference(m, p, alpha, N0=64):
    """The row sum in mpmath at 30 digits: the head n < N0 summed directly,
    the tail by mpmath's Euler-Maclaurin `sumem` with the integral over
    [N0, inf) passed in. That integral is taken after t = N0 u^(-p), which
    leaves a bounded integrand, split where t = m."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m, p, alpha = mpmath.mpf(m), mpmath.mpf(p), mpmath.mpf(alpha)

        def f(n):
            return (m / n) ** (1 / p) * (m + n) ** (alpha - 1) * (m + n - 1) ** -alpha

        head = mpmath.fsum(f(mpmath.mpf(n)) for n in range(1, N0))
        knee = (N0 / m) ** (1 / p)
        integral = mpmath.quad(lambda u: f(N0 * u ** -p) * p * N0 * u ** (-p - 1),
                               [0, knee, 1] if knee < 1 else [0, 1])
        return head + mpmath.sumem(f, [N0, mpmath.inf], integral=integral)


# p x m crossed, alpha and tol cycling through their values.
ROW_SUM_ORACLE_CASES = [
    (p, m, (0.0, 0.5, 1.0)[k % 3], (1e-8, 1e-10, 1e-12)[k % 3])
    for k, (p, m) in enumerate(itertools.product((1.05, 2.0, 3.0, 10.0, 12.0),
                                                 (1, 7, 1000, 10 ** 6)))
]


class TestRowSumAlpha:
    def test_frozen_value(self):
        res = row_sum_alpha(1, 2.0, 0.0)
        assert res.value == pytest.approx(ROW_SUM_M1_P2_A0, abs=2e-9)
        assert res.value + res.error_estimate < math.pi

    def test_alpha_interpolation_monotone(self):
        # (m+n)^-(1-alpha)(m+n-1)^-alpha grows with alpha, so does the sum
        v0 = row_sum_alpha(3, 2.0, 0.0).value
        v5 = row_sum_alpha(3, 2.0, 0.5).value
        v1 = row_sum_alpha(3, 2.0, 1.0).value
        assert v0 < v5 < v1

    def test_uniform_bound(self):
        """Each row sum stays below pi/sin(pi/p) for several m."""
        for p in (1.5, 2.0, 3.0):
            cap = theoretical_norm(p)
            for m in (1, 2, 7, 50):
                res = row_sum_alpha(m, p, 1.0, tol=1e-8)
                assert res.value + res.error_estimate < cap

    def test_remainder_certified(self):
        res = row_sum_alpha(2, 3.0, 0.5, tol=1e-6)
        tight = row_sum_alpha(2, 3.0, 0.5, tol=1e-10)
        assert abs(res.value - tight.value) <= res.error_estimate + 1e-9

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            row_sum_alpha(0, 2.0, 0.0)
        with pytest.raises(DomainError):
            row_sum_alpha(1, 2.0, 2.0)
        with pytest.raises(ParameterError):
            row_sum_alpha(1, 2.0, 0.0, tol=0.0)

    @pytest.mark.parametrize("p,m,alpha,tol", ROW_SUM_ORACLE_CASES)
    def test_bracket_holds_against_mpmath(self, p, m, alpha, tol):
        res = row_sum_alpha(m, p, alpha, tol)
        ref = float(row_sum_reference(m, p, alpha))
        assert abs(res.value - ref) <= res.error_estimate <= tol

    @pytest.mark.parametrize("p", [10.0, 12.0])
    def test_large_p_below_constant(self, p):
        """Summing until a summand drops below the default tol takes about
        tol^(-p/(p+1)) summands, more than 2^26 from p near 7 on; the
        Euler-Maclaurin head stays at most 16384 long here."""
        res = row_sum_alpha(1, p, 0.0)
        assert res.error_estimate <= 1e-9
        assert res.value + res.error_estimate < theoretical_norm(p)

    @pytest.mark.parametrize("tol", [1e-30, 1e-14])
    def test_unreachable_tol_raises(self, tol):
        # 1e-30 needs more than ROW_SUM_MAX_HEAD terms, 1e-14 is below the
        # relative floor of a sum near 1.86
        with pytest.raises(ParameterError, match=f"tol={tol}"):
            row_sum_alpha(1, 2.0, 0.0, tol=tol)
