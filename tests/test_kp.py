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
    TaylorFunction,
    Variant,
    apply_operator,
    hilbert_apply,
    kp_norm,
    kp_to_lp_isometry,
    lp_norm,
)

nonneg_entry = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
nonneg_values = st.lists(nonneg_entry, min_size=1, max_size=25)


def tf(*values):
    return TaylorFunction.from_values(tuple(float(v) for v in values))


class TestKpNorm:
    def test_constant_term_only(self):
        for p in (1.0, 1.5, 2.0, 4.0):
            assert kp_norm(tf(1), p) == 1.0

    def test_p2_is_plain_l2(self):
        f = tf(3, 0, 4)
        assert kp_norm(f, 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_weights_formula(self):
        # p = 3: sum (m+1)^1 |a_m|^3 with a = (1, 1) -> (1 + 2)^(1/3)
        assert kp_norm(tf(1, 1), 3.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)

    def test_p1_downweights(self):
        # p = 1: sum |a_m|/(m+1)
        assert kp_norm(tf(1, 1, 1), 1.0) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, rel=1e-15)

    def test_domain(self):
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=r"^p must be finite and > 0"):
                kp_norm(tf(1, 2), p)
        with pytest.raises(InvalidInputError):
            TaylorFunction(Sequence(1, (1.0,)))

    def test_rejects_negative_coefficients(self):
        # only magnitudes are modelled: kp_norm would read |-2| while
        # hilbert_apply would carry the sign
        with pytest.raises(InvalidInputError, match="negative entry -2.0 at index 1"):
            tf(1, -2)


    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_tiny_coefficients_keep_their_norm(self, p):
        """Coefficients whose p-th powers underflow: times 2^-1000 the norm
        is exactly 2^-1000 times the plain one, and a lone 1e-300 is its
        own norm."""
        values = (1.0, 0.5, 0.0, 0.25, 0.75)
        tiny = tf(*(2.0 ** -1000 * v for v in values))
        assert kp_norm(tiny, p) == 2.0 ** -1000 * kp_norm(tf(*values), p)
        assert kp_norm(tf(1e-300), p) == 1e-300

    @pytest.mark.parametrize("p, n_max", [(200.0, 200), (400.0, 200), (100.0, 2000)])
    def test_overflowing_weights_keep_the_norm(self, p, n_max):
        """Past m = 36 at p = 200 the weight (m+1)^(p-2) overflows while
        a_m^p underflows: the image of f = 1, c_m = 1/(m+1), still has the
        norm (sum_(k <= n_max+1) k^-2)^(1/p), with no warning, and a lone 1
        ahead of 200 zeros has norm 1."""
        image = hilbert_apply(tf(1), n_max)
        exact = math.fsum(k ** -2.0 for k in range(1, n_max + 2)) ** (1.0 / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kp_norm(image, p) == pytest.approx(exact, rel=1e-14)
            assert kp_norm(tf(1, *[0] * 200), p) == 1.0


class TestAgainstCoefficientLoops:
    """The array form of `kp_norm` against the sum written one coefficient
    at a time. Only `**` may round differently in numpy and in Python, by
    an ulp or two per term."""

    @given(nonneg_values, st.floats(1.1, 8.0))
    @settings(max_examples=100)
    def test_kp_norm(self, vals, p):
        loop = math.fsum((m + 1) ** (p - 2.0) * v ** p for m, v in enumerate(vals)) ** (1.0 / p)
        assert kp_norm(tf(*vals), p) == pytest.approx(loop, rel=1e-15, abs=1e-300)

    def test_empty(self):
        empty = TaylorFunction(Sequence(0, ()))
        assert kp_norm(empty, 3.0) == 0.0


class TestHilbertApply:
    def test_constant_term(self):
        # a = (1): c_n = 1/(n+1)
        out = hilbert_apply(tf(1), 3)
        assert out.coeffs.values.tolist() == [1.0, 0.5, 1.0 / 3.0, 0.25]

    def test_two_terms(self):
        out = hilbert_apply(tf(1, 2), 1)
        assert out.coeffs.values[0] == pytest.approx(1.0 + 2.0 / 2.0, rel=1e-15)
        assert out.coeffs.values[1] == pytest.approx(0.5 + 2.0 / 3.0, rel=1e-15)

    def test_zero_function(self):
        out = hilbert_apply(tf(0, 0), 2)
        assert out.coeffs.values.tolist() == [0.0, 0.0, 0.0]

    def test_symmetric_matrix(self):
        # entry (m, n) equals entry (n, m); probing with unit vectors
        em = hilbert_apply(tf(0, 0, 1), 5).coeffs.values
        en = hilbert_apply(tf(0, 0, 0, 0, 0, 1), 5).coeffs.values
        assert em[5] == en[2]

    def test_bad_n_max(self):
        with pytest.raises(ParameterError):
            hilbert_apply(tf(1), -1)

    def test_n_max_must_be_an_integer(self):
        with pytest.raises(ParameterError, match="n_max must be an integer, got 1.5"):
            hilbert_apply(tf(1), 1.5)
        out = hilbert_apply(tf(1, 0.5), np.int64(3)).coeffs.values
        assert out.tolist() == hilbert_apply(tf(1, 0.5), 3).coeffs.values.tolist()

    @pytest.mark.parametrize("values,n_max", [
        ((0.5, 0.0, 2.0, 1.25), 0),
        ((0.5, 0.0, 2.0, 1.25, 0.0, 3.0), 3),
        ((0.5, 0.0, 2.0), 11),
        ((1.0, 0.25, 0.0, 0.0, 0.0), 6),
        ((0.0, 0.0, 0.75, 0.0), 2),
    ])
    def test_matches_direct_sum(self, values, n_max):
        """Against sum_m a_m/(m+n+1) term by term: n_max = 0, below and
        above the stored length, trailing zeros."""
        out = hilbert_apply(tf(*values), n_max).coeffs.values
        assert len(out) == n_max + 1
        for n, c in enumerate(out):
            direct = math.fsum(a / (m + n + 1) for m, a in enumerate(values))
            assert c == pytest.approx(direct, rel=1e-15)

    def test_bit_identical_to_the_trimmed_correlation(self):
        """The image is the correlation of 1/(s+1) with a trimmed to its
        last nonzero coefficient, bit for bit, trailing zeros or not."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.random(int(rng.integers(1, 300)))
            a[rng.random(len(a)) < 0.3] = 0.0
            a = np.concatenate([a, np.zeros(int(rng.integers(0, 50)))])
            n_max = int(rng.integers(0, 400))
            nz = np.flatnonzero(a)
            trimmed = a[:nz[-1] + 1] if len(nz) else a[:0]
            ref = (np.correlate(1.0 / np.arange(1.0, len(trimmed) + n_max + 1.0), trimmed,
                                "valid") if len(nz) else np.zeros(n_max + 1))
            out = hilbert_apply(TaylorFunction.from_values(a), n_max).coeffs.values
            assert out.tolist() == ref.tolist()

    @given(nonneg_values, st.floats(1.1, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_image_norm_grows_with_truncation(self, vals, p):
        f = tf(*vals)
        n1 = kp_norm(hilbert_apply(f, 10), p)
        n2 = kp_norm(hilbert_apply(f, 40), p)
        assert n2 >= n1 - 1e-15


class TestIsometryConsistency:
    @given(nonneg_values, st.floats(1.05, 12.0))
    @settings(max_examples=150)
    def test_kp_norm_equals_lp_of_image(self, vals, p):
        f = tf(*vals)
        pushed = kp_to_lp_isometry(f.coeffs, p)
        assert lp_norm(pushed, p) == pytest.approx(kp_norm(f, p), rel=1e-13, abs=1e-300)

    @given(nonneg_values, st.integers(0, 60),
           st.floats(1.0, 1e6, exclude_min=True, allow_nan=False))
    @settings(max_examples=150)
    def test_hilbert_matrix_is_weighted_main(self, vals, n, p):
        """The re-weighting carries the Hilbert matrix 1/(m+n+1) on K^p to
        WEIGHTED_MAIN on l^p, entry by entry."""
        f = tf(*vals)
        lhs = kp_to_lp_isometry(hilbert_apply(f, n).coeffs, p).values
        rhs = apply_operator(KernelSpec(Variant.WEIGHTED_MAIN, p),
                             kp_to_lp_isometry(f.coeffs, p), n + 1).values
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=0.0)

