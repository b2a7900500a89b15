import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilbert_kp import (
    DomainError,
    InvalidInputError,
    Sequence,
    TaylorFunction,
    conjugate,
    epsilon_family,
    kp_to_lp_isometry,
    lp_norm,
    lp_to_kp_isometry,
    pushed_epsilon_family,
    read_sequence,
    write_sequence,
)
from hilbert_kp.sequences import ExponentPair, _dual_align_vec, _sum2

# zero or a comfortably normal magnitude; the norms of entries whose powers
# underflow are summed rescaled, which TestTinyEntries checks
nonneg_entry = st.one_of(st.just(0.0), st.floats(1e-6, 100.0))
nonneg_values = st.lists(nonneg_entry, min_size=1, max_size=30)
exponents = st.floats(1.05, 20.0, allow_nan=False)


def seq(*values, start=1):
    return Sequence(start, tuple(float(v) for v in values))


class TestLpNorm:
    def test_single_spike(self):
        for p in (1.0, 1.7, 2.0, 5.0):
            assert lp_norm(seq(1, 0, 0), p) == 1.0

    def test_pythagorean(self):
        assert lp_norm(seq(3, 4), 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_four_ones_p4(self):
        # direct formula: (4 * 1^4)^(1/4)
        assert lp_norm(seq(1, 1, 1, 1), 4.0) == pytest.approx(4.0 ** 0.25, rel=1e-15)

    def test_zero_iff_all_zero(self):
        assert lp_norm(seq(0, 0), 3.0) == 0.0
        assert lp_norm(seq(0, 1e-100), 3.0) > 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError, match=r"non-finite entry inf at index 2$"):
            Sequence(1, (1.0, float("inf")))
        with pytest.raises(InvalidInputError, match=r"non-finite entry nan at index 0$"):
            Sequence(0, (float("nan"),))
        with pytest.raises(InvalidInputError, match=r"entry -inf at index 4$"):
            Sequence(0, (0.0, 1.0, 2.0, 3.0, float("-inf"), float("nan")))

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            lp_norm(seq(1), 0.5)


class TestTinyEntries:
    """Entries whose p-th powers underflow: below a power sum of 2^-969 the
    norm is max|s| times the root of the sum of the powers of s/max|s|, so a
    nonzero sequence never has norm 0."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 12.0])
    def test_a_power_of_two_scales_the_norm_exactly(self, p):
        """Entries times 2^-1000 (normal floats, but their powers underflow)
        have exactly 2^-1000 times the norm: the scaled entries are the
        unscaled ones, bit for bit, as the largest is 1."""
        values = (1.0, -0.5, 0.3, 0.0, 0.7)
        tiny = seq(*(2.0 ** -1000 * v for v in values))
        assert lp_norm(tiny, p) == 2.0 ** -1000 * lp_norm(seq(*values), p)

    def test_underflowing_powers(self):
        assert lp_norm(seq(1e-110, 1e-110), 3.0) == pytest.approx(2.0 ** (1.0 / 3.0) * 1e-110,
                                                                  rel=1e-15)
        assert lp_norm(seq(0.0, -1e-300), 3.0) == 1e-300
        assert lp_norm(seq(5e-324), 2.0) == 5e-324

    def test_sums_above_the_threshold_are_not_rescaled(self):
        """A power sum just above 2^-969 keeps the plain sum's root; empty
        and zero sequences have norm 0."""
        s = seq(*[3.0 * 2.0 ** -486] * 3)
        assert float(np.sum(np.abs(s.values) ** 2.0)) > 2.0 ** -969
        assert lp_norm(s, 2.0) == math.fsum([9.0 * 2.0 ** -972] * 3) ** 0.5
        assert lp_norm(seq(), 2.0) == lp_norm(seq(0.0, 0.0), 2.0) == 0.0


class TestSum2:
    """`_sum2` against `math.fsum`, the correctly rounded sum it replaces."""

    @pytest.mark.parametrize("values", [[], [0.7], [1.0, 2.0 ** -53], [1e16, 1.0],
                                        [0.1, 0.2], [3.0, 1e-300], [1.0, 2.0 ** -53, 2.0 ** -53],
                                        [1.0] + [2.0 ** -54] * 1000])
    def test_short_arrays(self, values):
        t = np.array(values, dtype=float)
        assert _sum2(t) == math.fsum(values)
        assert isinstance(_sum2(t), float)

    def test_heavy_tailed_arrays(self):
        """Entries as the never-exceed suite draws them, u^(-1/(2p)) on about
        70 % of a log-uniform support up to 20000, raised to p as `lp_norm`
        raises them."""
        rng = np.random.default_rng(20051)
        for _ in range(300):
            p = float(rng.choice([1.25, 1.5, 2.0, 3.0, 6.0]))
            size = int(math.exp(rng.uniform(0.0, math.log(20000.0)))) + 1
            x = np.where(rng.random(size) < 0.7, (1.0 - rng.random(size)) ** (-0.5 / p), 0.0)
            t = x ** p
            assert _sum2(t) == math.fsum(t.tolist()), (p, size)

    def test_overflow_falls_back_to_fsum(self):
        """Partial sums that are not finite are left to `fsum`, which keeps
        a signed sum whose exact value is finite. A sum that is not finite
        raises `OverflowError` whether its terms overflow or one of them is
        inf, and no RuntimeWarning comes from the TwoSum step."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                _sum2(np.array([1e308, 1e308, 1.0]))
            with pytest.raises(OverflowError, match="not finite"):
                _sum2(np.array([1.0, math.inf, 2.0]))
            with pytest.raises(ValueError):
                _sum2(np.array([math.inf, -math.inf]))
            assert _sum2(np.array([1.7e308, -1.7e308, 5.0])) == 5.0


class TestConjugate:
    def test_self_conjugate(self):
        assert conjugate(2.0).q == 2.0

    def test_p3(self):
        assert conjugate(3.0).q == pytest.approx(1.5, rel=1e-15)

    def test_p_1_1(self):
        assert conjugate(1.1).q == pytest.approx(11.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, float("inf"), float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            conjugate(bad)

    def test_q_outside_the_domain(self):
        """Past 2^53 the float p/(p - 1) rounds to 1.0, an l^1 pairing; a
        pair is refused unless q, too, lies in (1, inf)."""
        with pytest.raises(DomainError, match=r"^q must lie in \(1, inf\), got 1\.0$"):
            conjugate(1e16)
        with pytest.raises(DomainError, match=r"^q must lie in \(1, inf\), got nan$"):
            ExponentPair(2.0, float("nan"))

    @given(exponents)
    def test_invariant(self, p):
        pq = conjugate(p)
        assert abs(1.0 / pq.p + 1.0 / pq.q - 1.0) <= 1e-14


class TestHoelder:
    @given(nonneg_values, nonneg_values, exponents)
    @settings(max_examples=200)
    def test_pairing_bounded(self, a_vals, b_vals, p):
        pq = conjugate(p)
        a, b = seq(*a_vals), seq(*b_vals)
        pairing = math.fsum(x * y for x, y in zip(a.values, b.values))
        assert pairing <= lp_norm(a, pq.p) * lp_norm(b, pq.q) * (1 + 1e-12) + 1e-12


class TestDualAlign:
    """`_dual_align_vec`, the Hölder alignment the ascent runs on its
    images, which are positive."""

    @staticmethod
    def align(*values, p):
        return _dual_align_vec(np.array(values, dtype=float), p)

    def test_spike(self):
        b, norm = self.align(1, 0, 0, p=3.0)
        assert b.tolist() == [1.0, 0.0, 0.0] and norm == 1.0

    def test_symmetric_p2(self):
        b, norm = self.align(1, 1, p=2.0)
        assert b[0] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert b[0] == b[1]
        assert norm == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_two_one_p3(self):
        b, norm = self.align(2, 1, p=3.0)
        scale = 9.0 ** (2.0 / 3.0)
        assert b[0] == pytest.approx(4.0 / scale, rel=1e-13)
        assert b[1] == pytest.approx(1.0 / scale, rel=1e-13)
        assert lp_norm(Sequence(1, b), 1.5) == pytest.approx(1.0, rel=1e-12)
        assert math.fsum([2.0 * b[0], b[1]]) == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-12)
        assert norm == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize("p", [1000.0, 1001.0])
    def test_no_power_overflows(self, p):
        """3^1000 is past the float range; the powers are taken of c/max(c)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            b, norm = self.align(3, 1, p=p)
        assert b.tolist() == [1.0, 0.0] and norm == 3.0

    @given(nonneg_values, exponents)
    @settings(max_examples=200)
    def test_attains_equality(self, vals, p):
        assume(any(vals))
        c = seq(*vals)
        pq = conjugate(p)
        b, norm = _dual_align_vec(c.values, p)
        assert lp_norm(Sequence(1, b), pq.q) == pytest.approx(1.0, rel=1e-12)
        pairing = math.fsum(x * y for x, y in zip(c.values, b))
        assert pairing == pytest.approx(lp_norm(c, p), rel=1e-12)
        assert norm == pytest.approx(lp_norm(c, p), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError, match=r"^b has negative entry -0.25 at index 1$"):
            seq(0, -0.25, 3, -7, start=0).require_nonnegative("b")
        # an array entry is reported as a Python float, not as np.float64(...)
        with pytest.raises(InvalidInputError, match=r"^c has negative entry -0.1 at index 3$"):
            Sequence(1, np.array([0.5, 0.0, -0.1])).require_nonnegative("c")


class TestIsometry:
    def test_spike(self):
        for p in (1.5, 2.0, 7.0):
            A = kp_to_lp_isometry(seq(1, start=0), p)
            assert A.start_index == 1
            assert A.values == (1.0,)

    def test_identity_at_p2(self):
        a = seq(0.3, 0.1, 2.5, start=0)
        A = kp_to_lp_isometry(a, 2.0)
        assert A.values.tolist() == a.values.tolist()  # (p - 2)/p is exactly 0.0

    def test_single_term_p3(self):
        A = kp_to_lp_isometry(seq(0, 1, start=0), 3.0)
        assert A.values[1] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    @given(nonneg_values, exponents)
    @settings(max_examples=200)
    def test_norm_preserved(self, vals, p):
        from hilbert_kp import TaylorFunction, kp_norm
        a = seq(*vals, start=0)
        A = kp_to_lp_isometry(a, p)
        assert lp_norm(A, p) == pytest.approx(kp_norm(TaylorFunction(a), p), rel=1e-13)

    @given(nonneg_values, exponents)
    def test_roundtrip(self, vals, p):
        a = seq(*vals, start=0)
        back = lp_to_kp_isometry(kp_to_lp_isometry(a, p), p)
        for u, v in zip(back.values, a.values):
            assert u == pytest.approx(v, rel=1e-13, abs=1e-300)

    def test_wrong_start_index(self):
        with pytest.raises(InvalidInputError):
            kp_to_lp_isometry(seq(1.0, start=1), 2.0)


class TestAgainstElementLoops:
    """The array forms of the three helpers against the generator expressions
    they replaced, which computed one entry at a time in Python floats. At
    p = 2 every exponent is 0 or 1 and they agree exactly; elsewhere numpy's
    `**` may round differently from Python's by an ulp or two per entry."""

    M = 4000

    @staticmethod
    def assert_within_ulps(got: Sequence, ref: list, p: float):
        if p == 2.0:
            assert got.values.tolist() == ref
        else:
            ref = np.array(ref)
            assert np.all(np.abs(got.values - ref) <= 2.0 * np.spacing(ref))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_dual_align(self, p):
        """Entry by entry (c_n/||c||_p)^(p-1), the ascent's alignment, with
        ||c||_p summed as the ascent sums it."""
        c, _ = epsilon_family(0.05, p, self.M)
        norm = float(np.sum(c.values ** p)) ** (1.0 / p)
        ref = [(v / norm) ** (p - 1.0) for v in c.values.tolist()]
        self.assert_within_ulps(Sequence(1, _dual_align_vec(c.values, p)[0]), ref, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_kp_to_lp_isometry(self, p):
        a = pushed_epsilon_family(0.05, p, self.M).coeffs
        e = (p - 2.0) / p
        ref = [v * (m + 1) ** e for m, v in enumerate(a.values.tolist())]
        self.assert_within_ulps(kp_to_lp_isometry(a, p), ref, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_lp_to_kp_isometry(self, p):
        A, _ = epsilon_family(0.05, p, self.M)
        e = (p - 2.0) / p
        ref = [v / (m + 1) ** e for m, v in enumerate(A.values.tolist())]
        self.assert_within_ulps(lp_to_kp_isometry(A, p), ref, p)


class TestStorage:
    def test_values_are_a_read_only_float64_copy(self):
        given_ = np.array([1.0, 2.0, 3.0])
        s = Sequence(1, given_)
        assert s.values.dtype == np.float64
        assert Sequence(0, [1, 2]).values.dtype == np.float64
        assert not s.values.flags.writeable
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        given_[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_iterates_as_python_floats_and_computes_plain_arrays(self):
        s = Sequence(0, [0.0, 0.5, 2.0, 0.0])
        assert [type(v) for v in s.values] == [float] * 4
        nnz = sum(v != 0.0 for v in s.values)
        assert nnz == 2 and type(nnz) is int
        assert json.dumps(nnz) == "2"
        for derived in (s.values * 2.0, s.values ** 0.5, np.abs(s.values),
                        np.ones(4) + s.values, s.values + np.ones(4)):
            assert type(derived) is np.ndarray and derived.flags.writeable
        assert type(s.values.sum()) is np.float64
        assert not s.values[1:].flags.writeable

    def test_equality_compares_values(self):
        vals = np.linspace(0.0, 1.0, 50)
        bumped = vals.copy()
        bumped[7] = np.nextafter(bumped[7], 2.0)
        assert Sequence(1, vals) == Sequence(1, vals.tolist())
        assert Sequence(1, vals) != Sequence(0, vals)
        assert Sequence(1, vals) != Sequence(1, vals[:-1])
        assert Sequence(1, vals) != Sequence(1, bumped)
        assert Sequence(1, ()) == Sequence(1, [])
        assert TaylorFunction.from_values(vals) == TaylorFunction(Sequence(0, tuple(vals)))
        assert TaylorFunction.from_values(vals) != TaylorFunction.from_values(bumped)
        for unhashable in (Sequence(1, vals), TaylorFunction.from_values(vals)):
            with pytest.raises(TypeError):
                hash(unhashable)

    def test_repr_is_exact_and_complete(self):
        vals = [0.1 + 0.2] + [k / 7.0 for k in range(1200)]
        text = repr(Sequence(0, vals))
        assert text == f"Sequence(start_index=0, values={tuple(vals)!r})"
        assert "0.30000000000000004" in text and "..." not in text
        assert text.endswith(f", {1199 / 7.0!r}))")

    def test_written_file_matches_the_python_float_format(self, tmp_path):
        # the p = 2 pushed eps-family as epsilon_family and the tuple-valued
        # inverse isometry wrote it: one `index,repr(float)` line per entry
        eps, M = 0.05, 4000
        a = (np.arange(1, M + 1, dtype=float) ** (-(1.0 + eps) / 2.0)).tolist()
        expected = "# start_index=0\n" + "".join(
            f"{m},{v / (m + 1) ** 0.0!r}\n" for m, v in enumerate(a))
        path = tmp_path / "pushed.txt"
        write_sequence(path, pushed_epsilon_family(eps, 2.0, M).coeffs)
        body = path.read_text()
        assert body == expected
        assert "np.float64" not in body


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        s = Sequence(1, (0.5, 0.0, 3.25, 1e-9))
        path = tmp_path / "seq.txt"
        write_sequence(path, s)
        assert read_sequence(path) == s

    def test_zero_based_header(self, tmp_path):
        path = tmp_path / "taylor.txt"
        path.write_text("# start_index=0\n0,1.0\n3,0.25\n")
        s = read_sequence(path)
        assert s.start_index == 0
        assert s.values.tolist() == [1.0, 0.0, 0.0, 0.25]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,1.0\n")
        with pytest.raises(InvalidInputError):
            read_sequence(path)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("# start_index=1\n1,1.0\n2,0.5\n1,3.0\n")
        with pytest.raises(InvalidInputError, match=r"dup\.txt: index 1 appears more than once"):
            read_sequence(path)
