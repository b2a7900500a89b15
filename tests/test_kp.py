import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    DomainError,
    InvalidInputError,
    ParameterError,
    Sequence,
    TaylorFunction,
    conjugate,
    hilbert_apply,
    k1_embedding_bound,
    kp_norm,
    kp_to_lp_isometry,
    lp_norm,
)
from hilbert_kp.kp import ZETA_2

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
        with pytest.raises(DomainError):
            kp_norm(tf(1), 0.0)
        with pytest.raises(DomainError):
            TaylorFunction(Sequence(1, (1.0,)))

    def test_rejects_negative_coefficients(self):
        # only magnitudes are modelled: kp_norm would read |-2| while
        # hilbert_apply would carry the sign
        with pytest.raises(InvalidInputError, match="negative entry -2.0 at index 1"):
            tf(1, -2)


class TestAgainstCoefficientLoops:
    """The array forms of `kp_norm` and the embedding's lhs against the sums
    written one coefficient at a time. Only `**` may round differently in
    numpy and in Python, by an ulp or two per term."""

    @given(nonneg_values, st.floats(1.1, 8.0))
    @settings(max_examples=100)
    def test_kp_norm(self, vals, p):
        loop = math.fsum((m + 1) ** (p - 2.0) * v ** p for m, v in enumerate(vals)) ** (1.0 / p)
        assert kp_norm(tf(*vals), p) == pytest.approx(loop, rel=1e-15, abs=1e-300)

    @given(nonneg_values, st.floats(1.1, 8.0))
    @settings(max_examples=100)
    def test_embedding_lhs(self, vals, p):
        loop = math.fsum(v / (m + 1) for m, v in enumerate(vals))
        assert k1_embedding_bound(tf(*vals), p)[0] == loop

    def test_empty(self):
        empty = TaylorFunction(Sequence(0, ()))
        assert kp_norm(empty, 3.0) == 0.0
        assert k1_embedding_bound(empty, 3.0) == (0.0, 0.0)


class TestHilbertApply:
    def test_constant_term(self):
        # a = (1): c_n = 1/(n+1)
        out = hilbert_apply(tf(1), 3)
        assert out.coeffs.values == (1.0, 0.5, 1.0 / 3.0, 0.25)

    def test_two_terms(self):
        out = hilbert_apply(tf(1, 2), 1)
        assert out.coeffs.values[0] == pytest.approx(1.0 + 2.0 / 2.0, rel=1e-15)
        assert out.coeffs.values[1] == pytest.approx(0.5 + 2.0 / 3.0, rel=1e-15)

    def test_zero_function(self):
        out = hilbert_apply(tf(0, 0), 2)
        assert out.coeffs.values == (0.0, 0.0, 0.0)

    def test_symmetric_matrix(self):
        # entry (m, n) equals entry (n, m); probing with unit vectors
        em = hilbert_apply(tf(0, 0, 1), 5).coeffs.values
        en = hilbert_apply(tf(0, 0, 0, 0, 0, 1), 5).coeffs.values
        assert em[5] == en[2]

    def test_bad_n_max(self):
        with pytest.raises(ParameterError):
            hilbert_apply(tf(1), -1)

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


class TestEmbedding:
    def test_frozen_zeta(self):
        assert ZETA_2 == pytest.approx(1.64493406684823, rel=1e-14)

    def test_constant_term(self):
        lhs, rhs = k1_embedding_bound(tf(1), 2.0)
        assert lhs == 1.0
        assert rhs == pytest.approx(math.sqrt(ZETA_2), rel=1e-14)
        assert lhs <= rhs

    @given(nonneg_values, st.floats(1.1, 8.0))
    @settings(max_examples=150)
    def test_bound_holds(self, vals, p):
        lhs, rhs = k1_embedding_bound(tf(*vals), p)
        assert lhs <= rhs * (1 + 1e-12) + 1e-300

    def test_near_extremal(self):
        # a_m = (m+1)^(-1/q') saturation pattern for p = 2: a_m = (m+1)^(-1/2)
        vals = [(m + 1) ** -0.5 for m in range(2000)]
        lhs, rhs = k1_embedding_bound(tf(*vals), 2.0)
        assert lhs / rhs > 0.6

    def test_conjugate_exponent_used(self):
        lhs3, rhs3 = k1_embedding_bound(tf(1, 1), 3.0)
        q3 = conjugate(3.0).q
        assert rhs3 == pytest.approx(ZETA_2 ** (1.0 / q3) * kp_norm(tf(1, 1), 3.0),
                                     rel=1e-14)
        assert lhs3 <= rhs3
