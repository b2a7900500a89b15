import hashlib
import itertools
import math
import warnings

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
    ascent_lower_bound,
    beta_integral,
    bilinear_form,
    conjugate,
    lp_norm,
    row_sum_alpha,
    theoretical_norm,
)
from hilbert_kp import kernels
from hilbert_kp.kernels import (
    _blocks,
    _correlate,
    _fft_rounding,
    _form,
    _hankel,
    _image,
    kernel_matrix,
)
from hilbert_kp.sequences import _sum2

import oracles

ROW_SUM_M1_P2_A0 = 1.8600250792  # frozen independent evaluation

nonneg_entry = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
nonneg_values = st.lists(nonneg_entry, min_size=1, max_size=25)

ONE_OF_EACH = [
    KernelSpec(Variant.CLASSICAL),
    KernelSpec(Variant.WEIGHTED_MAIN, p=1.3),
    KernelSpec(Variant.YANG_SHIFT, p=3.0),
    KernelSpec(Variant.YANG_HALF_SHIFT, p=6.0),
]


def seq(*values):
    return Sequence(1, tuple(float(v) for v in values))


class TestKernelValues:
    def test_classical_corner(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert kernel_matrix(spec, [1], [1])[0, 0] == 1.0
        assert kernel_matrix(spec, [2], [3])[0, 0] == pytest.approx(0.25, abs=1e-16)

    def test_weighted_main_formula(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        e = 1.0 / 1.5 - 1.0 / 3.0
        assert kernel_matrix(spec, [2], [5])[0, 0] == pytest.approx(
            (5.0 / 2.0) ** e / 6.0, rel=1e-14)

    def test_yang_shift_formula(self):
        spec = KernelSpec(Variant.YANG_SHIFT, p=4.0)
        e = 0.75 - 0.25
        assert kernel_matrix(spec, [3], [2])[0, 0] == pytest.approx(
            (2.0 / 3.0) ** e / 5.0, rel=1e-14)

    def test_yang_half_shift_formula(self):
        spec = KernelSpec(Variant.YANG_HALF_SHIFT, p=4.0)
        assert kernel_matrix(spec, [1], [2])[0, 0] == pytest.approx(
            3.0 ** 0.5 / 2.0, rel=1e-14)

    @pytest.mark.parametrize("variant", [Variant.WEIGHTED_MAIN, Variant.YANG_SHIFT,
                                         Variant.YANG_HALF_SHIFT])
    def test_p2_collapse_bitwise(self, variant):
        """Every weighted variant reduces exactly to its unweighted shape at
        p = 2, where the exponent 1/q - 1/p is exactly 0.0."""
        spec = KernelSpec(variant, p=2.0)
        m = np.arange(1, 40)
        n = np.arange(1, 40)
        K = kernel_matrix(spec, m, n)
        shift = 0.0 if variant is Variant.YANG_SHIFT else -1.0
        expected = 1.0 / (m[:, None] + n[None, :] + shift)
        assert np.array_equal(K, expected)

    def test_weight_exponent_at_and_beside_p2(self):
        """0.0 at p = 2 (2.0 + 1e-16 is 2.0 too); one ulp either side it is
        the plain 1/q - 1/p, not 0."""
        assert 2.0 + 1e-16 == 2.0
        assert KernelSpec(Variant.WEIGHTED_MAIN, p=2.0).shape()[0] == 0.0
        for p in (float(np.nextafter(2.0, 3.0)), float(np.nextafter(2.0, 1.0))):
            pq = conjugate(p)
            e = KernelSpec(Variant.WEIGHTED_MAIN, p=p).shape()[0]
            assert e == 1.0 / pq.q - 1.0 / pq.p
            assert e != 0.0

    @pytest.mark.parametrize("p", [float(np.nextafter(2.0, 3.0)), float(np.nextafter(2.0, 1.0))])
    def test_form_beside_p2_matches_dense_grid(self, p):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=p)
        a, b = seq(1.0, 0.5, 0.25, 2.0), seq(0.3, 1.0, 0.7)
        value, budget = _form(spec, a, b)
        assert abs(value - dense_form(spec, a.values, b.values)) <= budget

    def test_symmetry_classical(self):
        spec = KernelSpec(Variant.CLASSICAL)
        assert kernel_matrix(spec, [4], [9])[0, 0] == kernel_matrix(spec, [9], [4])[0, 0]

    def test_positivity(self):
        for variant in Variant:
            spec = KernelSpec(variant, p=1.2)
            K = kernel_matrix(spec, np.arange(1, 30), np.arange(1, 30))
            assert np.all(K > 0.0)
            assert np.all(np.isfinite(K))

    def test_large_indices_no_overflow(self):
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.01)
        v = kernel_matrix(spec, [1], [10 ** 15])[0, 0]
        assert math.isfinite(v) and v > 0.0

    def test_invalid_indices(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(InvalidInputError):
            kernel_matrix(spec, [0], [1])

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            KernelSpec(Variant.WEIGHTED_MAIN, p=1.0)

    @pytest.mark.parametrize("variant", ["YangShift", "nonsense"])
    def test_refuses_a_variant_that_is_not_a_member(self, variant):
        """A string used to pass, and `_hankel` read any non-member as
        WEIGHTED_MAIN: "YangShift" gave 1.2137009797867384 on the pair below."""
        with pytest.raises(InvalidInputError,
                           match=rf"^variant must be a Variant member, got {variant!r}$"):
            KernelSpec(variant, p=3.0)

    def test_the_member_gives_its_own_kernel(self):
        form = bilinear_form(KernelSpec(Variant.YANG_SHIFT, p=3.0), seq(1, 0.5, 0.2), seq(0.3, 1))
        assert form == pytest.approx(0.7800023473022075, rel=1e-14)

    # The paper's four kernels as (weights carry e, shift, symbol_shift),
    # written out here rather than read from `_SHAPES`, so a wrong row fails.
    ROWS = {Variant.CLASSICAL: (False, 0.0, 1.0),
            Variant.WEIGHTED_MAIN: (True, 0.0, 1.0),
            Variant.YANG_SHIFT: (True, 0.0, 0.0),
            Variant.YANG_HALF_SHIFT: (True, 0.5, 1.0)}

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("p", [1.05, 2.0, float(np.nextafter(2.0, 3.0)), 6.0])
    def test_every_variant_has_a_table_row(self, variant, p):
        """`shape()` gives the variant's row, with e = 0.0 for the classical
        kernel at any p and 1/q - 1/p for the weighted ones."""
        weighted, shift, symbol_shift = self.ROWS[variant]
        pq = conjugate(p)
        e = 1.0 / pq.q - 1.0 / pq.p if weighted else 0.0
        spec = KernelSpec(variant, p=p)
        assert spec.shape() == (e, shift, symbol_shift)
        assert spec.weighted is weighted

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("p", [1.0, 0.5, -5.0, math.nan, math.inf])
    def test_every_variant_refuses_a_p_outside_the_domain(self, variant, p):
        """A spec's p is its norm's p, so it lies in (1, inf) whether or not
        the weights carry it: a classical spec at p = nan used to pass, and
        its ascent at p = 3 certified 2.2714 with the nan ignored."""
        with pytest.raises(DomainError, match=rf"^p must lie in \(1, inf\), got {p}$"):
            KernelSpec(variant, p=p)


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
        if not (a.values.any() and b.values.any()):
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
            expected = sum(kernel_matrix(spec, [m], [n])[0, 0] * v
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

    def test_n_max_must_be_an_integer(self):
        spec = KernelSpec(Variant.CLASSICAL)
        with pytest.raises(ParameterError, match="n_max must be an integer, got 2.5"):
            apply_operator(spec, seq(1, 2), 2.5)
        got = apply_operator(spec, seq(1, 2), np.int64(3)).values
        assert got.tolist() == apply_operator(spec, seq(1, 2), 3).values.tolist()


def sparse_support(rng, size, lead=0, trail=0):
    """Entries in [0, 1), about 70 % nonzero, with forced zero runs at both
    ends."""
    x = rng.random(size) * (rng.random(size) < 0.7)
    x[:lead] = 0.0
    x[size - trail:] = 0.0
    return x


def dense(entries):
    """A sparse {index: entry} map as dense entries on 1..max(index)."""
    x = np.zeros(max(entries))
    x[np.array(list(entries)) - 1] = list(entries.values())
    return x


def dense_form(spec, a, b):
    """The form from the dense kernel grid, the independent reference."""
    K = kernel_matrix(spec, np.arange(1, len(a) + 1), np.arange(1, len(b) + 1))
    return math.fsum(np.asarray(a) * (K @ np.asarray(b)))


# Each weighted variant where e is exactly 0.0 and where it is tiny but not 0.
BESIDE_P2 = [pytest.param(KernelSpec(v, p=p), id=f"{v.value}-{p!r}")
             for v in Variant if v is not Variant.CLASSICAL
             for p in (2.0, math.nextafter(2.0, 3.0))]


class TestHankelCore:
    @pytest.mark.parametrize("spec", ONE_OF_EACH + BESIDE_P2, ids=lambda s: s.variant.value)
    def test_factorisation(self, spec):
        """k(m, n) = w(m) v(n) h(m+n) on a grid out to index 2000, also at
        p = 2 and one ulp above, where `_hankel`'s weights are exactly 1 and
        where they are not."""
        idx = np.unique(np.geomspace(1, 2000, 60).round())
        i = idx.astype(int) - 1
        w, v, h = _hankel(spec, 2000, 2000)
        K = kernel_matrix(spec, idx, idx)
        np.testing.assert_allclose(w[i][:, None] * v[i][None, :] * h[i[:, None] + i[None, :]], K,
                                   rtol=1e-14, atol=0.0)

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
            a, b = dense(a_entries), dense(b_entries)
            got = bilinear_form(spec, Sequence(1, tuple(a)), Sequence(1, tuple(b)))
            ref = float(oracles.exact_form(spec, a_entries, b_entries))
            assert abs(got - ref) <= 2e-15 * ref, (a_entries, b_entries)

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    def test_all_zero_inputs(self, spec):
        zero, empty, one = seq(0, 0, 0), Sequence(1, ()), seq(0, 1)
        for a, b in [(zero, one), (one, zero), (zero, zero), (empty, one), (one, empty)]:
            assert bilinear_form(spec, a, b) == 0.0
        assert apply_operator(spec, zero, 4).values.tolist() == [0.0] * 4
        assert apply_operator(spec, empty, 2).values.tolist() == [0.0] * 2

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
        idx = np.arange(1, N + 1)
        w, v, h = _hankel(spec, N, N)
        L = _blocks(N, N)[0]
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


def dense_image(spec, a, n_max, block=256):
    """a^T K on 1..n_max from the dense kernel grid, accumulated in long
    double one block of columns at a time, so no grid exceeds
    len(a) x block entries."""
    m = np.arange(1, len(a) + 1)
    al = np.asarray(a, dtype=np.longdouble)
    return np.concatenate([al @ kernel_matrix(spec, m, n).astype(np.longdouble)
                           for n in np.array_split(np.arange(1, n_max + 1),
                                                   -(-n_max // block))])


# Rounded-exponent and factor slack of `_form`'s relative term, and the
# dense grid's own exp/log error (within 1.7e-15, see `_pow_ratio`).
def factor_slack(size_a, size_b):
    return (32.0 + 2.0 * math.log(size_a + size_b)) * 2.0 ** -53


class TestFftPath:
    """The form and the operator from `_FFT_CROSSOVER` products on: the
    error is normwise and within `_form`'s budget."""

    FAR_SPIKES = [({1000: 1.0}, {4200: 1.0}), ({4200: 0.3}, {1000: 1.7}),
                  ({1: 1.0, 4200: 2.0}, {1: 3.0, 1000: 0.5}),
                  ({1: 1.0, 4200: 1e-6}, {1000: 1.0})]

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("size_a,size_b", [(4200, 1000), (1000, 4200)])
    def test_form_and_image_match_dense_grid(self, spec, size_a, size_b):
        assert size_a * size_b >= kernels._FFT_CROSSOVER
        rng = np.random.default_rng([size_a, size_b, 23])
        a, b = sparse_support(rng, size_a), sparse_support(rng, size_b)
        a[0] = b[-1] = 0.5
        ref_image = dense_image(spec, a, size_b)
        ref = float(ref_image @ b.astype(np.longdouble))
        value, budget = _form(spec, Sequence(1, a), Sequence(1, b))
        assert bilinear_form(spec, Sequence(1, a), Sequence(1, b)) == value
        assert abs(value - ref) <= budget + 2e-15 * ref
        assert budget <= 1e-10 * ref
        v, _, fft_error = _image(spec, a, size_b)
        got = apply_operator(spec, Sequence(1, a), size_b).values
        err = np.linalg.norm(got - ref_image.astype(float))
        ref_norm = float(np.linalg.norm(ref_image.astype(float)))
        assert err <= (1.01 * v.max() * fft_error
                       + (factor_slack(size_a, size_b) + 2e-15) * ref_norm)

    @pytest.mark.parametrize("spec", ONE_OF_EACH + [KernelSpec(Variant.WEIGHTED_MAIN, p=1.05)],
                             ids=lambda s: f"{s.variant.value}-{s.p}")
    def test_far_spikes_within_budget(self, spec):
        """Against the 40-digit kernel formula. Relative accuracy is lost
        here, and the budget bounds the loss."""
        for a_entries, b_entries in self.FAR_SPIKES:
            a, b = dense(a_entries), dense(b_entries)
            assert len(a) * len(b) >= kernels._FFT_CROSSOVER
            got, budget = _form(spec, Sequence(1, a), Sequence(1, b))
            ref = float(oracles.exact_form(spec, a_entries, b_entries))
            assert abs(got - ref) <= budget <= 1e-8 * ref, (a_entries, b_entries)

    def test_direct_below_the_crossover(self):
        """One product short of the crossover the form has no FFT term: its
        budget is the relative term alone."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        size_b = kernels._FFT_CROSSOVER // 2048
        a, b = np.ones(2048), np.ones(size_b - 1)
        value, budget = _form(spec, Sequence(1, a), Sequence(1, b))
        assert _image(spec, a, size_b - 1)[2] == 0.0
        assert budget == (32.0 + 2048 + 2.0 * math.log(2048 + size_b - 1)) * 2.0 ** -53 * value
        assert _image(spec, a, size_b)[2] > 0.0

    def test_fft_path_pairs_by_sum2(self):
        """From the crossover on the pairing is `_sum2`'s, as on the direct
        path, and the relative term carries no summation length: the
        correlation's error is the FFT term."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        size_b = kernels._FFT_CROSSOVER // 2048
        a, b = np.ones(2048), np.ones(size_b)
        value, budget = _form(spec, Sequence(1, a), Sequence(1, b))
        v, y, fft_error = _image(spec, a, size_b)
        assert fft_error > 0.0
        assert value == _sum2(b * (v * y))
        bw = b * v
        assert budget == (1.01 * math.sqrt(float(np.dot(bw, bw))) * fft_error
                          + (32.0 + 2.0 * math.log(2048 + size_b)) * 2.0 ** -53 * value)

    def test_short_support_stays_direct(self):
        """A support shorter than `_FFT_MIN_SUPPORT` is correlated directly
        however long the image: 2 entries onto 2^21, the crossover's
        products, carry no FFT term, and the image is the direct one."""
        spec = KernelSpec(Variant.CLASSICAL)
        v, y, fft_error = _image(spec, np.ones(2), 1 << 21)
        assert fft_error == 0.0
        assert not kernels._by_fft(2, 1 << 21)
        assert kernels._by_fft(kernels._FFT_MIN_SUPPORT, 1 << 21)
        n = np.arange(1.0, 11.0)
        assert np.allclose(v[:10] * y[:10], 1.0 / n + 1.0 / (n + 1.0), rtol=1e-15, atol=0.0)


class TestOverlapSave:
    """`_image`'s FFT path in blocks: a support of 600 entries onto n_max of
    8693, 8694 and 8695 takes 2048-point transforms with P = 1449 image
    entries each, in 6, 6 and 7 blocks. The last block then gives P - 1,
    exactly P, and 1 entry, so the last case's block is almost all
    padding."""

    SIZE = 600
    EDGES = [(8693, 6, 1448), (8694, 6, 1449), (8695, 7, 1)]

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("n_max,K,last", EDGES)
    def test_matches_direct_correlation(self, spec, n_max, K, last):
        B, blocks = _blocks(self.SIZE, n_max)
        P = B - self.SIZE + 1
        assert (B, blocks, n_max - (K - 1) * P) == (2048, K, last)
        rng = np.random.default_rng([n_max, 31])
        a = sparse_support(rng, self.SIZE)
        a[-1] = 1.0
        v, y, fft_error = _image(spec, a, n_max)
        w, _, h = _hankel(spec, self.SIZE, n_max)
        ref = np.correlate(h, w * a, "valid")
        assert len(y) == n_max
        # the direct sums of 600 nonnegative terms err by at most gamma_600
        assert (np.linalg.norm(y - ref)
                <= fft_error + self.SIZE * 2.0 ** -53 * np.linalg.norm(ref))

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    def test_operator_matches_dense_grid(self, spec):
        size, n_max = self.SIZE, self.EDGES[-1][0]
        assert _blocks(size, n_max)[1] > 1
        rng = np.random.default_rng([size, n_max, 37])
        a = sparse_support(rng, size)
        a[0] = 0.5
        ref = dense_image(spec, a, n_max).astype(float)
        v, _, fft_error = _image(spec, a, n_max)
        got = apply_operator(spec, Sequence(1, a), n_max).values
        err = np.linalg.norm(got - ref)
        assert err <= (1.01 * v.max() * fft_error
                       + (factor_slack(size, n_max) + 2e-15) * np.linalg.norm(ref))

    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.variant.value)
    @pytest.mark.parametrize("size,n_max", [(4096, 4096), (4001, 4001)])
    def test_one_block_is_the_single_transform(self, spec, size, n_max):
        """Where the plan is one block, image and budget are bit for bit
        those of one transform of length L >= len(h)."""
        rng = np.random.default_rng([size, 41])
        a = rng.random(size)
        v, y, fft_error = _image(spec, a, n_max)
        w, _, h = _hankel(spec, size, n_max)
        wa = w * a
        L, K = _blocks(size, n_max)
        assert K == 1 and L >= len(h)
        assert y.tolist() == _correlate(np.fft.rfft(h, L), wa, n_max).tolist()
        assert fft_error == _fft_rounding(L) * max(
            math.sqrt(float(np.sum(h * h))) * float(np.sum(wa)),
            float(np.sum(h)) * math.sqrt(float(np.sum(wa * wa))))

    def test_square_sections_are_one_block(self):
        """The ascent's N x N section takes one transform of the least power
        of two >= 2N - 1, and 2 at N = 1: `ascent_lower_bound` takes its
        length from `_blocks` and uses only one block."""
        for N in range(1, 5001):
            L = 2
            while L < 2 * N - 1:
                L *= 2
            assert _blocks(N, N) == (L, 1), N

    def test_blocks_cut_the_budget_and_the_work(self):
        """1826 x 18416, a shape of the never-exceed suite, takes three
        8192-point blocks in place of one 32768-point transform."""
        assert _blocks(1826, 18416) == (8192, 3)
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=1.5)
        a = np.random.default_rng(43).random(1826)
        _, _, fft_error = _image(spec, a, 18416)
        w, _, h = _hankel(spec, 1826, 18416)
        wa = w * a
        single = _fft_rounding(32768) * max(np.linalg.norm(h) * wa.sum(),
                                            h.sum() * np.linalg.norm(wa))
        assert fft_error < single


def _primitive_bits() -> str:
    """A digest of the floating-point primitives under the Hankel layer.
    numpy chooses its power, exp and log kernels, its FFT code paths and
    its BLAS by CPU, so the same code can round differently on another
    machine; `TestFrozenBits` compares only where these give the bits they
    gave when its values were recorded."""
    x = np.arange(1.0, 4097.0) / 7.0
    spectrum = np.fft.rfft(x, 8192) * np.fft.rfft(x[::-1], 8192)
    parts = [x ** -0.3, x ** 1.7, np.exp(-x / 100.0), np.log(x), np.fft.irfft(spectrum, 8192),
             np.correlate(x, x[:600], "valid"), np.array([np.dot(x, x), np.sum(x)])]
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()[:16]


class TestFrozenBits:
    """The Hankel layer's results as hex, recorded before `_hankel` took
    counts: refactors of the section, the transform length or the
    correlation must keep them bit for bit. The ascent is at p = 1.5 for
    N = 1, 2, 3, 17, 2048 and 4096 (from 2048 on `_ratio` pairs by FFT):
    (lower_bound, rounding_budget, half steps). The form is on one seeded
    shape per path of `_image`, 600 x 600 direct, 4096 x 4096 one
    transform and 600 x 8695 overlap-save in 7 blocks: (value, budget)."""

    PRIMITIVES = "632ff137ae0b5710"

    ASCENT = {
        Variant.CLASSICAL: {
            1: ('0x1.fffffffffffd4p-1', '0x1.6317217f7d1cfp-48', 4),
            2: ('0x1.493839f858e03p+0', '0x1.e39429e37bbccp-48', 8),
            3: ('0x1.70e9a6131ced9p+0', '0x1.1a28b231632ecp-47', 10),
            17: ('0x1.fa150cec7b508p+0', '0x1.08e41bf0ca141p-46', 12),
            2048: ('0x1.61731f62a6a6ap+1', '0x1.740a8e4198a11p-41', 24),
            4096: ('0x1.69fdd836f0765p+1', '0x1.fde070027515ep-41', 24),
        },
        Variant.WEIGHTED_MAIN: {
            1: ('0x1.fffffffffffd4p-1', '0x1.6317217f7d1cfp-48', 4),
            2: ('0x1.448ff9b9ec1c9p+0', '0x1.dcbce8d550852p-48', 8),
            3: ('0x1.68cc416432ccbp+0', '0x1.13f3d2e32e079p-47', 10),
            17: ('0x1.e47feaff39439p+0', '0x1.fb3057e460480p-47', 14),
            2048: ('0x1.55066e9770986p+1', '0x1.40c7389ec11edp-39', 24),
            4096: ('0x1.5e3da3f17ddf0p+1', '0x1.f52b2de0ce380p-39', 24),
        },
        Variant.YANG_SHIFT: {
            1: ('0x1.fffffffffffd4p-2', '0x1.6317217f7d1cfp-49', 4),
            2: ('0x1.7863175010b67p-1', '0x1.146e3f321b85cp-48', 8),
            3: ('0x1.c4a006fcb04d2p-1', '0x1.5a2f7e92e9d03p-48', 8),
            17: ('0x1.800ee2bfdac05p+0', '0x1.920b2ae81c518p-47', 10),
            2048: ('0x1.456345e5e7ee8p+1', '0x1.b9da2fdbab777p-40', 20),
            4096: ('0x1.50d6ef938b569p+1', '0x1.54b6b62c23d2dp-39', 20),
        },
        Variant.YANG_HALF_SHIFT: {
            1: ('0x1.fffffffffffd4p-1', '0x1.6317217f7d1cfp-48', 4),
            2: ('0x1.4778daeccaf5bp+0', '0x1.e103094584611p-48', 8),
            3: ('0x1.6e17a436d4468p+0', '0x1.180079f84667fp-47', 8),
            17: ('0x1.f45571cb02e5dp+0', '0x1.05e1d933195bfp-46', 12),
            2048: ('0x1.5ef5f9e3d966fp+1', '0x1.6163185d8acd1p-39', 22),
            4096: ('0x1.67ab76f600c06p+1', '0x1.11c06ea239d8dp-38', 24),
        },
    }

    FORM = {
        (Variant.CLASSICAL, 600, 600): ('0x1.99d330241074fp+7', '0x1.029d30158e794p-36'),
        (Variant.CLASSICAL, 4096, 4096): ('0x1.6052ff90eb864p+10', '0x1.e3001bbcf6131p-29'),
        (Variant.CLASSICAL, 600, 8695): ('0x1.1a5f4909efa64p+9', '0x1.6bf64c76e95bdp-31'),
        (Variant.WEIGHTED_MAIN, 600, 600): ('0x1.cc6c783f904bdp+7', '0x1.228b2a781ad88p-36'),
        (Variant.WEIGHTED_MAIN, 4096, 4096): ('0x1.9bb4e82105725p+10', '0x1.33c278855753ep-28'),
        (Variant.WEIGHTED_MAIN, 600, 8695): ('0x1.90cf409618d49p+8', '0x1.771cec86e456bp-32'),
        (Variant.YANG_SHIFT, 600, 600): ('0x1.c8dbe8a9aade6p+7', '0x1.204b4ec95d75ap-36'),
        (Variant.YANG_SHIFT, 4096, 4096): ('0x1.9b27ea2021639p+10', '0x1.81dba44003518p-29'),
        (Variant.YANG_SHIFT, 600, 8695): ('0x1.8f3628a796b77p+8', '0x1.d830c0bfdfceap-33'),
        (Variant.YANG_HALF_SHIFT, 600, 600): ('0x1.cf9ef5e744962p+7', '0x1.248fa99a778cbp-36'),
        (Variant.YANG_HALF_SHIFT, 4096, 4096): ('0x1.9cd4685f03000p+10', '0x1.355162c784f2ep-28'),
        (Variant.YANG_HALF_SHIFT, 600, 8695): ('0x1.923d57e29056dp+8', '0x1.785b3511ae176p-32'),
    }

    @pytest.fixture(autouse=True)
    def same_primitives(self):
        digest = _primitive_bits()
        if digest != self.PRIMITIVES:
            pytest.skip("numpy's floating-point primitives round differently here "
                        f"(digest {digest}) than where the values were recorded "
                        f"(digest {self.PRIMITIVES})")

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_ascent(self, variant):
        spec = KernelSpec(variant, p=1.5)
        for N, (bound, budget, half_steps) in self.ASCENT[variant].items():
            est = ascent_lower_bound(spec, 1.5, N)
            assert (est.lower_bound.hex(), est.rounding_budget.hex(), len(est.trace)) == (
                bound, budget, half_steps), N

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("M,N", [(600, 600), (4096, 4096), (600, 8695)])
    def test_form(self, variant, M, N):
        rng = np.random.default_rng([M, N, 53])
        a, b = rng.random(M), rng.random(N)
        value, budget = _form(KernelSpec(variant, p=1.5), Sequence(1, a), Sequence(1, b))
        assert (value.hex(), budget.hex()) == self.FORM[variant, M, N]


class TestFormBudgetTerms:
    """Each of `_form`'s two budget terms is needed by some form."""

    @pytest.mark.parametrize("spec", ONE_OF_EACH + [KernelSpec(Variant.WEIGHTED_MAIN, p=1.05)],
                             ids=lambda s: f"{s.variant.value}-{s.p}")
    def test_far_spike_needs_the_fft_term(self, spec):
        """A spike at the far end of a long a, paired with a spike of a short
        b: the FFT's error scales with the norm of the whole symbol, while
        the form is one small product, so the error exceeds the relative
        term many times over (74 to 338 times for these kernels)."""
        M, n = 1 << 18, 16
        a, b = np.zeros(M), np.zeros(n)
        a[-1] = b[-1] = 1.0
        got, budget = _form(spec, Sequence(1, a), Sequence(1, b))
        ref = float(oracles.kernel(spec, M, n))
        relative = (32.0 + n + 2.0 * math.log(M + n)) * 2.0 ** -53 * got
        assert relative < abs(got - ref) <= budget

    @pytest.mark.parametrize("p,m", [(24.0, 3), (40.0, 3)])
    def test_direct_pairing_needs_the_relative_term(self, p, m):
        """On the direct path the relative term is the whole budget. Here the
        error (3.1 and 3.6 u) is also above its 2 ln(len(a) + len(b)) u
        part alone (2.8 u), so the constant 32 + n is needed as well."""
        spec = KernelSpec(Variant.YANG_HALF_SHIFT, p=p)
        a = np.zeros(m)
        a[-1] = 1.0
        got, budget = _form(spec, Sequence(1, a), seq(1))
        ref = oracles.kernel(spec, m, 1)
        err = float(abs(got - ref))
        assert _image(spec, a, 1)[2] == 0.0
        assert 0.0 < err <= budget


class TestRatioBudget:
    """`_ratio`'s budget against the 40-digit ratio with the exact conjugate
    exponent q = p/(p - 1)."""

    @pytest.mark.parametrize("variant", [Variant.WEIGHTED_MAIN, Variant.YANG_HALF_SHIFT])
    @pytest.mark.parametrize("p,scale_a,scale_b", [(1.996, 1e120, 1.0), (1.996, 1e-120, 1.0),
                                                   (1.367, 1.0, 1e60), (1.367, 1.0, 1e-60),
                                                   (1.367, 1e60, 1e-60)])
    def test_rounded_exponents_need_their_terms(self, variant, p, scale_a, scale_b):
        """fl(1/p) is off by 0.996 u at p = 1.996, and fl(p/(p-1)) by 0.52 u
        at p = 1.367. Far from unit norm that moves the ratio by 129 to
        276 u, beyond `_form`'s budget over the norms plus 10 u (50 u)."""
        spec = KernelSpec(variant, p=p)
        a = Sequence(1, scale_a * np.array([1.0, 0.5, 2.0, 0.25]))
        b = Sequence(1, scale_b * np.array([0.75, 1.5, 1.0]))
        ratio, budget = kernels._ratio(spec, a, b)
        value, form_budget = _form(spec, a, b)
        err = abs(ratio - oracles.exact_ratio(spec, a.values, b.values))
        assert form_budget * ratio / value + 10.0 * 2.0 ** -53 * ratio < err <= budget

    @pytest.mark.parametrize("variant", [Variant.WEIGHTED_MAIN, Variant.YANG_SHIFT,
                                         Variant.YANG_HALF_SHIFT], ids=lambda v: v.value)
    def test_a_weighted_kernel_must_carry_the_norms_p(self, variant):
        """`_ratio` norms at the spec's own p, the one its weights carry, so
        no other p can be paired with it; the classical kernel is normed at
        its p too."""
        a, b = seq(1.0, 0.5), seq(0.3, 1.0)
        for p, q in ((1.5, 3.0), (3.0, 1.5)):
            for spec in (KernelSpec(variant, p=p), KernelSpec(Variant.CLASSICAL, p=p)):
                ratio, _ = kernels._ratio(spec, a, b)
                assert ratio == _form(spec, a, b)[0] / (lp_norm(a, p) * lp_norm(b, q))

    def test_is_the_form_over_the_norms(self):
        spec = KernelSpec(Variant.YANG_SHIFT, p=3.0)
        a, b = seq(1.0, 0.0, 2.5, 0.3), seq(0.5, 1.5, 4.0)
        ratio, _ = kernels._ratio(spec, a, b)
        assert ratio == _form(spec, a, b)[0] / (lp_norm(a, 3.0) * lp_norm(b, 1.5))

    def test_a_norm_past_the_float_range_raises(self):
        """1e200 cubed is inf: an error, not a ratio of 0 over an inf norm."""
        spec = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="not finite"):
                kernels._ratio(spec, seq(1e200), seq(1.0))


# p x m crossed, alpha and tol cycling through their values; then tol = 1e-13
# where the certified width, about 1e-13 of the value, is below it.
ROW_SUM_ORACLE_CASES = [
    (p, m, (0.0, 0.5, 1.0)[k % 3], (1e-8, 1e-10, 1e-12)[k % 3])
    for k, (p, m) in enumerate(itertools.product((1.05, 2.0, 3.0, 10.0, 12.0),
                                                 (1, 7, 1000, 10 ** 6)))
] + [
    (p, m, (0.0, 0.5, 1.0)[k % 3], 1e-13)
    for k, (p, m) in enumerate(itertools.product((1.05, 2.0, 3.0), (1, 7)))
] + [(1.05, 1000, 0.5, 1e-13)]


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
        """The certified width brackets the mpmath sum at a point off the
        oracle grid: p = 2.5 and m = 50 are in no `ROW_SUM_ORACLE_CASES` case."""
        res = row_sum_alpha(50, 2.5, 0.5, tol=1e-12)
        assert abs(res.value - float(oracles.row_sum(50, 2.5, 0.5))) <= res.error_estimate

    def test_domain(self):
        for m in (0, 2.5, "3"):
            with pytest.raises(ParameterError, match=r"^m must be"):
                row_sum_alpha(m, 2.0, 0.0)
        with pytest.raises(DomainError):
            row_sum_alpha(1, 2.0, 2.0)
        # width <= tol cannot hold for a NaN tol, and says nothing for an infinite one
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match=r"^tol must be finite and > 0"):
                row_sum_alpha(1, 2.0, 0.0, tol=tol)

    def test_m_keeps_its_index_sums_exact(self):
        """m + N is exact up to m = 2^53 - 1024, where the sum is still
        certified below pi; one more, or 2^53 + 1 (which rounds to 2^53 and
        used to return its row bit for bit), raises naming m."""
        top = 2 ** 53 - 1024
        beta = beta_integral(0.5)
        res = row_sum_alpha(top, 2.0, 1.0)
        assert res.value + res.error_estimate < beta.value - beta.error_estimate
        for m in (top + 1, 2 ** 53, 2 ** 53 + 1):
            with pytest.raises(ParameterError, match=rf"^m must be <= 2\*\*53 - 1024.*got {m}$"):
                row_sum_alpha(m, 2.0, 1.0)

    @pytest.mark.parametrize("p,m,alpha,tol", ROW_SUM_ORACLE_CASES)
    def test_bracket_holds_against_mpmath(self, p, m, alpha, tol):
        res = row_sum_alpha(m, p, alpha, tol)
        ref = float(oracles.row_sum(m, p, alpha))
        assert abs(res.value - ref) <= res.error_estimate <= tol

    @pytest.mark.parametrize("p", [10.0, 12.0])
    def test_large_p_below_constant(self, p):
        """Summing until a summand drops below the default tol takes about
        tol^(-p/(p+1)) summands, more than 2^26 from p near 7 on."""
        res = row_sum_alpha(1, p, 0.0)
        assert res.error_estimate <= 1e-9
        assert res.value + res.error_estimate < theoretical_norm(p)

    @pytest.mark.parametrize("tol", [1e-30, 1e-15])
    def test_unreachable_tol_raises(self, tol):
        # The certified width of this sum near 1.86 is about 6.6e-15.
        with pytest.raises(ParameterError, match=f"tol={tol}: its certified width is"):
            row_sum_alpha(1, 2.0, 0.0, tol=tol)

    @pytest.mark.parametrize("m,p,alpha", [(1, 2.0, 0.0), (7, 1.05, 0.5), (1000, 3.0, 1.0),
                                           (10 ** 6, 12.0, 0.5)])
    def test_tol_does_not_change_the_result(self, m, p, alpha):
        loose, tight = row_sum_alpha(m, p, alpha, 1e-6), row_sum_alpha(m, p, alpha, 1e-12)
        assert (loose.value, loose.error_estimate, loose.terms) == (
            tight.value, tight.error_estimate, tight.terms)
