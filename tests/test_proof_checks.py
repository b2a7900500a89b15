import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hilbert_kp import (
    CheckReport,
    DomainError,
    ParameterError,
    alpha_schedule,
    check_bernoulli_steps,
    check_F_convex_max,
    check_logconvexity_f,
    check_logconvexity_g,
    check_master_inequalities,
    check_midpoint_bound,
    check_monotone_in_x,
    check_scalar_constants,
    default_sweep,
)
from hilbert_kp import F_of_y, beta_integral, conjugate, proof_checks, quadrature, row_sum_alpha
from hilbert_kp.proof_checks import _master_points
from hilbert_kp.proof_checks import _sides as _library_sides
from hilbert_kp.quadrature import _power_integral, _scaled_I_of_epsilon

import oracles

# Frozen two-sided values from an independent high-precision evaluation.
INEQ_FROZEN = {
    # (x, alpha): (lhs_I, rhs_I, lhs_II, rhs_II); lhs_I None means identically 0
    (1.0 / 3.0, 0.0): (None, None, 1.051755059, 1.352466388),
    (1.0 / 3.0, 0.5): (0.317707283, 0.6345867612, 0.7864517317, 1.352466388),
    (0.4, 0.5): (0.296936654, 0.7126292016, 0.9133940635, 1.110192031),
    (0.4, 1.0): (0.7092217023, 0.7126292016, 0.5975158893, 1.110192031),
    (0.5, 1.0): (0.6489782823, 0.8704197514, 0.6489782823, 0.8704197514),
}
MIDPOINT_N1 = 0.541194830244  # int_{1/2}^{3/2} t^(-1/2)/(1+t) dt, m=1, p=2, alpha=0


class TestMasterPoints:
    def test_beta(self):
        x, alpha, beta = _master_points([0.5, 0.4], [1.0, 0.5])
        assert x.tolist() == [0.5, 0.4] and alpha.tolist() == [1.0, 0.5]
        assert beta[0] == pytest.approx(1.0, abs=1e-15)
        assert beta[1] == pytest.approx(0.8 / 0.6, rel=1e-14)
        assert [a.shape for a in _master_points(0.4, 0.5)] == [(1,)] * 3
        assert _master_points([0.2, 0.3, 0.4], 0.5)[1].tolist() == [0.5] * 3

    def test_domain(self):
        with pytest.raises(DomainError, match=r"^x must lie in \(0, 1/2\], got 0\.0$"):
            check_master_inequalities(0.0, 0.0)
        with pytest.raises(DomainError, match=r"^x must lie in \(0, 1/2\], got 0\.6$"):
            check_master_inequalities(0.6, 0.0)
        with pytest.raises(DomainError, match=r"^need 0 <= alpha\*x <= 1, got alpha=2\.5$"):
            check_master_inequalities(0.5, 2.5)   # alpha*x > 1
        with pytest.raises(DomainError, match="alpha=nan"):
            check_master_inequalities(0.3, float("nan"))
        with pytest.raises(DomainError, match=r"got nan$"):
            check_master_inequalities(float("nan"), 0.0)

    def test_names_the_first_bad_point(self):
        """Among several points outside the domain, the first is named,
        under the rule it breaks."""
        with pytest.raises(DomainError, match=r"^x must lie in \(0, 1/2\], got 0\.7$"):
            check_master_inequalities([0.2, 0.7, 0.3, 0.9], [0.0, 0.0, -1.0, 0.0])
        with pytest.raises(DomainError, match=r"^need 0 <= alpha\*x <= 1, got alpha=-1\.0$"):
            check_master_inequalities([0.2, 0.3, 0.7], [0.0, -1.0, 0.0])

    def test_reports_interleave_in_point_order(self):
        """One `ineq_I` and one `ineq_II` report per point, in point order,
        each the report of that point checked alone."""
        x, alpha = [0.25, 1.0 / 3.0, 0.4, 0.5], [0.0, 0.5, 1.0, 1.0]
        reports = check_master_inequalities(x, alpha)
        assert [r.name for r in reports] == ["ineq_I", "ineq_II"] * 4
        assert reports[4].parameters == "x=0.4,alpha=1.0"
        assert reports[5].parameters == "x=0.4,alpha=1.0,beta=1.0"
        assert reports == [r for xi, ai in zip(x, alpha) for r in check_master_inequalities(xi, ai)]

    @pytest.mark.parametrize("x,alpha", [([], []), (0.2, []), ([], 0.5)])
    def test_refuses_an_empty_point_set(self, x, alpha):
        """No points would give no reports, a check that passes vacuously."""
        with pytest.raises(DomainError, match=r"^need at least one point \(x, alpha\)$"):
            check_master_inequalities(x, alpha)

    @pytest.mark.parametrize("alpha", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zero_alpha_prints_the_same_in_either_order(self, alpha):
        """0.0 and -0.0 are one alpha; each prints as 0.0, whichever comes first."""
        texts = [r.parameters for r in check_master_inequalities([0.2, 0.3], alpha)]
        assert texts == ["x=0.2,alpha=0.0", "x=0.2,alpha=0.0,beta=1.25",
                         "x=0.3,alpha=0.0", "x=0.3,alpha=0.0,beta=" + repr(1.0 / 0.7)]
        assert [r.parameters for r in check_master_inequalities(0.2, -0.0)] == texts[:2]


class TestCheckReport:
    def test_pass_fail_margin(self):
        assert CheckReport("t", "", 1.0, 2.0, 0.5).passed
        assert not CheckReport("t", "", 1.0, 2.0, 1.5).passed
        assert not CheckReport("t", "", 2.0, 2.0, 0.0).passed

    def test_side_condition_fails_a_clear_margin(self):
        """A check whose side condition fails does not pass, however far its
        margin clears its budget."""
        report = CheckReport("t", "", 1.0, 2.0, 0.5, holds=False)
        assert report.margin > report.error_budget
        assert not report.passed

    def test_verdict_follows_the_sides(self):
        """Margin and verdict are derived, so a report cannot be given a
        verdict its sides contradict; changing a side changes the verdict."""
        report = CheckReport("t", "", 1.0, 1.5, 1.0)
        assert report.margin == 0.5 and not report.passed
        assert replace(report, error_budget=0.0).passed
        for field in ("margin", "passed"):
            with pytest.raises(TypeError):
                replace(report, **{field: True})

    def test_slotted_layout(self):
        """A report is a slotted dataclass with no `__dict__`; `replace`,
        equality and the derived verdict work as on a frozen one."""
        report = CheckReport("t", "x=0.1", 1.0, 1.5, 0.25, terms=3)
        assert not hasattr(report, "__dict__")
        assert CheckReport.__slots__ == ("name", "parameters", "lhs", "rhs",
                                         "error_budget", "terms", "holds")
        assert report == CheckReport("t", "x=0.1", 1.0, 1.5, 0.25, terms=3)
        assert report != replace(report, terms=4)
        assert report.margin == 0.5 and report.passed
        assert not replace(report, holds=False).passed
        assert not replace(report, error_budget=0.5).passed


class TestLogConvexity:
    def test_expression_matches_hand_derivative(self):
        # alpha = 0: (log f)'' = 1/(p t^2) + 1/(m+t)^2 exactly
        val = check_logconvexity_f(3, 2.0, 0.0, [2.0]).rhs
        assert val == pytest.approx(0.125 + 1.0 / 25.0, rel=1e-14)

    def test_g_expression_matches(self):
        val = check_logconvexity_g(1.0, 4.0, 0.0, [0.25]).rhs
        assert val == pytest.approx(0.25 / 1.25 ** 2 + 1.0 / 2.25 ** 2, rel=1e-14)

    def test_f_passes_wide_grid(self):
        grid = np.geomspace(1e-3, 1e4, 200)
        for m, p, alpha in ((1, 1.1, 0.0), (5, 2.0, 1.0), (100, 10.0, 0.5)):
            assert check_logconvexity_f(m, p, alpha, grid).passed

    def test_g_passes(self):
        grid = np.linspace(0.0, 0.5, 150)
        assert check_logconvexity_g(0.5, 2.0, 1.0, grid).passed

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            check_logconvexity_f(1, 2.0, 0.0, [-1.0, 1.0])
        with pytest.raises(DomainError):
            check_logconvexity_g(1.0, 2.0, 0.0, [0.0, 0.7])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_points_that_are_not_finite(self, bad):
        """These used to give a failed report (or a numpy warning), as if
        the inequality were false, instead of refusing the input."""
        with pytest.raises(DomainError):
            check_logconvexity_f(1, 2.0, 0.5, [1.0, bad])
        with pytest.raises(DomainError):
            check_logconvexity_g(bad, 2.0, 0.5, [0.25])
        with pytest.raises(DomainError):
            check_logconvexity_g(1.0, 2.0, 0.5, [0.25, bad])

    @pytest.mark.parametrize("p, alpha", [(1.0, 0.5), (0.5, 0.0), (math.inf, 0.5),
                                          (2.0, -0.5), (2.0, 1.5), (2.0, math.nan)])
    def test_rejects_exponents_outside_the_domain(self, p, alpha):
        with pytest.raises(DomainError):
            check_logconvexity_f(1, p, alpha, [1.0])
        with pytest.raises(DomainError):
            check_logconvexity_g(1.0, p, alpha, [0.25])

    def test_rejects_row_zero(self):
        """m = 0 used to give rhs = inf with numpy warnings."""
        with pytest.raises(ParameterError, match=r"^m must be >= 1, got 0$"):
            check_logconvexity_f(0, 2.0, 0.5, [1.0])


class TestMidpoint:
    def test_frozen_first_interval(self):
        rep = check_midpoint_bound(1, 2.0, 0.0, n_max=1)
        assert rep.lhs == pytest.approx(0.5, abs=1e-15)          # f(1) = 1/(1*2)... 1^(-1/2)/2
        assert rep.rhs == pytest.approx(MIDPOINT_N1, abs=1e-10)
        assert rep.passed

    def test_long_run(self):
        assert check_midpoint_bound(2, 3.0, 0.5, n_max=40).passed

    def test_domain(self):
        with pytest.raises(ParameterError, match=r"^n_max must be >= 1, got 0$"):
            check_midpoint_bound(1, 2.0, 0.0, n_max=0)

    @pytest.mark.parametrize("m, p, alpha, n_max", [(1, 2.0, -0.5, 3), (2, 2.0, 1.5, 4),
                                                    (1, 0.5, 0.0, 3), (1, 1.0, 0.5, 2)])
    def test_rejects_exponents_outside_the_domain(self, m, p, alpha, n_max):
        """The binomial series derives its estimate only for 1 < p and
        0 <= alpha <= 1; these points used to pass."""
        with pytest.raises(DomainError):
            check_midpoint_bound(m, p, alpha, n_max)

    def test_rejects_row_zero(self):
        """m = 0 used to raise ZeroDivisionError."""
        with pytest.raises(ParameterError, match=r"^m must be >= 1, got 0$"):
            check_midpoint_bound(0, 2.0, 0.5, 3)

    @pytest.mark.parametrize("m", [1, 2, 7, 1000, 10 ** 6])
    def test_integral_within_its_budget(self, m):
        """The integral at the reported worst n, against 40-digit
        quadrature, is within the check's budget; n = 1 puts both ends of
        the integral below 0.1 from m = 15 on."""
        for p in (1.05, 2.0, 12.0):
            for alpha in (0.0, 0.5, 1.0):
                for n_max in (1, 25):
                    rep = check_midpoint_bound(m, p, alpha, n_max)
                    n = int(rep.parameters.rsplit("worst_n=", 1)[1])
                    exact = oracles.midpoint_integral(m, p, alpha, n)
                    assert 0.0 < rep.error_budget
                    assert abs(rep.rhs - exact) <= rep.error_budget, (p, alpha, n_max)


class TestFConvexMax:
    def test_p2_alpha0(self):
        rep = check_F_convex_max(2.0, 0.0, np.linspace(0.0, 0.5, 21))
        assert rep.passed
        # F(0) = pi dominates F(1/2) = 2 arctan(sqrt 2) here
        assert rep.rhs == pytest.approx(math.pi, abs=1e-6)

    def test_other_corner(self):
        assert check_F_convex_max(3.0, 1.0, np.linspace(0.0, 0.5, 11)).passed

    def test_rejects_a_grid_point_that_is_not_finite(self):
        """A NaN point used to get past the grid check and be refused by
        the series, under a message that named the series, not the grid."""
        with pytest.raises(DomainError, match=r"^y grid must lie in \[0, 1/2\]$"):
            check_F_convex_max(2.0, 0.0, [0.25, math.nan])

    @pytest.mark.parametrize("grid", [[0.1, 0.25, 0.25, 0.4], [0.0, 0.0, 0.25], [0.5, 0.25, 0.5]])
    def test_rejects_a_repeated_grid_point(self, grid):
        """A repeated point used to give NaN slopes, which compare False,
        so the convexity condition held vacuously and the check passed."""
        with pytest.raises(DomainError, match=r"^y grid points must be distinct$"):
            check_F_convex_max(2.0, 0.0, grid)


def _sides(x: float, alpha: float) -> list[tuple[float, float]]:
    """(value, estimate) of lhs_I, rhs_I, lhs_II and rhs_II at one point, read
    from the library's `_sides`: I at (x, 1-x, alpha), II at (1-x, x, beta)."""
    xs, alphas, beta = _master_points(x, alpha)
    first = _library_sides(xs, 1.0 - xs, alphas)
    second = _library_sides(1.0 - xs, xs, beta)
    return [(float(side[0][0]), float(side[1][0])) for side in (*first, *second)]


def ineq_I_lhs(x: float, alpha: float) -> float:
    """lhs_I at one point, read through `check_master_inequalities`."""
    return check_master_inequalities(x, alpha)[0].lhs


def ineq_II_lhs(x: float, alpha: float) -> float:
    """lhs_II at one point, read through `check_master_inequalities`."""
    return check_master_inequalities(x, alpha)[1].lhs


class TestMasterInequalities:
    @pytest.mark.parametrize("key", sorted(INEQ_FROZEN))
    def test_frozen_sides(self, key):
        frozen = INEQ_FROZEN[key]
        sides = _sides(*key)
        if frozen[0] is None:   # lhs_I is identically 0 under alpha = 0
            assert sides[0] == (0.0, 0.0)
            frozen, sides = frozen[2:], sides[2:]
        for (value, _), ref in zip(sides, frozen):
            assert value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("key", sorted(INEQ_FROZEN))
    def test_checks_pass(self, key):
        first, second = check_master_inequalities(*key)
        assert first.passed and second.passed

    @pytest.mark.parametrize("side", [ineq_I_lhs, ineq_II_lhs])
    @pytest.mark.parametrize("x, alpha", [(0.3, 1e3), (0.7, 0.0), (0.0, 1.0)])
    def test_lhs_outside_the_domain(self, side, x, alpha):
        """Both left sides take only points with 0 < x <= 1/2 and
        0 <= alpha x <= 1, where their series stay short."""
        with pytest.raises(DomainError):
            side(x, alpha)

    def test_tightest_point_still_clears(self):
        # x = 0.4 under alpha = 1 has the smallest margin in the whole sweep
        rep = check_master_inequalities(0.4, 1.0)[0]
        assert 0.0 < rep.margin < 0.01
        assert rep.passed


def _identity_points(alpha=None) -> list[tuple[float, float]]:
    """40 seeded points (x, alpha), x in [0.02, 1/2] taken as 1/p so that
    `F_of_y` raises to exactly -x, and alpha in [0, 1] unless given."""
    rng = np.random.default_rng(20231)
    p = 1.0 / rng.uniform(0.02, 0.5, 40)
    alphas = rng.uniform(0.0, 1.0, 40) if alpha is None else np.full(40, alpha)
    return [(1.0 / pi, ai) for pi, ai in zip(p.tolist(), alphas.tolist())]


class TestMasterIdentities:
    """Each master inequality is a drop of F(y) (`F_of_y`) from y = 0 to
    y = 1/2: F(0) - F(1/2) = 2^x (rhs_I - lhs_I) at p = 1/x, and mirrored,
    G(0) - G(1/2) = 2^(1-x) (rhs_II - lhs_II), G being F at (q, beta). Both
    sides agree within the summed estimates of `F_of_y` and `_sides`, the
    latter scaled as the identity scales them."""

    @pytest.mark.parametrize("x, alpha", _identity_points())
    def test_first(self, x, alpha):
        F0, F_half = F_of_y(0.0, 1.0 / x, alpha), F_of_y(0.5, 1.0 / x, alpha)
        (lhs, lhs_est), (rhs, rhs_est) = _sides(x, alpha)[:2]
        scale = 2.0 ** x
        assert abs(F0.value - F_half.value - scale * (rhs - lhs)) <= (
            F0.error_estimate + F_half.error_estimate + scale * (lhs_est + rhs_est))

    @pytest.mark.parametrize("x, alpha", _identity_points(alpha=1.0))
    def test_second(self, x, alpha):
        """Only at alpha = 1, where beta = 1: any other alpha gives beta > 1,
        outside the exponents `F_of_y` takes."""
        q = conjugate(1.0 / x).q
        G0, G_half = F_of_y(0.0, q, 1.0), F_of_y(0.5, q, 1.0)
        (lhs, lhs_est), (rhs, rhs_est) = _sides(x, alpha)[2:]
        scale = 2.0 ** (1.0 - x)
        assert abs(G0.value - G_half.value - scale * (rhs - lhs)) <= (
            G0.error_estimate + G_half.error_estimate + scale * (lhs_est + rhs_est))


_ORACLE_CASES = [(x, alpha_schedule(x))
                 for x in (1.0 / 6000.0, 1e-3, 0.1, 0.2, 0.35, 0.45, 0.5)]
_ORACLE_CASES += [(1.0 / 3.0, 0.0), (1.0 / 3.0, 0.5), (0.4, 0.5), (0.4, 1.0)]


class TestMasterInequalitySeries:
    @pytest.mark.parametrize("x, alpha", _ORACLE_CASES)
    def test_sides_within_their_estimates(self, x, alpha):
        """Each side's error estimate bounds its actual error and is positive;
        at x = 1/6000 the rhs of the second inequality is about 3000."""
        for (value, estimate), ref in zip(_sides(x, alpha), oracles.master_sides(x, alpha)):
            if estimate == 0.0:   # lhs_I under alpha = 0
                assert alpha == 0.0 and value == ref == 0
                continue
            assert estimate > 0.0
            assert abs(value - ref) <= estimate


def _power_integral_reference(x: float, s: float, z: float) -> tuple[float, float, int]:
    """The series of `_power_integral` for one (x, s, z), summed by a scalar
    loop: Pfaff's on the parameter x where x+1-s > 0, on s elsewhere. Returns
    value, error estimate and term count."""
    pfaff = (1.0 - s) + x > 0.0
    num, den = ((1.0 - s) + x, 1.0) if pfaff else (s, x + 1.0)
    w = z / (1.0 + z)
    coeff, partial, k = 1.0, 0.0, 0
    terms = []
    while True:
        term = coeff / (x + k) if pfaff else coeff
        terms.append(term)
        partial += term
        step = (num + k) / (den + k)
        ratio = w * step if step > 1.0 else w
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * 2.0 ** -53 * partial:
            break
        coeff *= step * w
        k += 1
    base = 1.0 + z
    scale = base ** -x if pfaff else base ** -s / x
    value = scale * math.fsum(terms)
    tail = term * ratio / (1.0 - ratio)
    d = float(1 + Fraction(z) - Fraction(base))   # the rounding of 1 + z, exactly
    gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)   # Sum2's second-order term
    relative = (6 * k + 8) * 2.0 ** -53 + gamma * gamma + (x if pfaff else s) * abs(d) / base
    return value, scale * tail + relative * value, k + 1


def _six_families(xs):
    """The (c, s, z) lanes of every series behind the master inequalities at
    the points xs under the alpha schedule, plus 1/3 and 2/5 under both
    adjacent weights."""
    points = [(x, alpha_schedule(x)) for x in xs]
    points += [(1.0 / 3.0, 0.0), (1.0 / 3.0, 0.5), (0.4, 0.5), (0.4, 1.0)]
    lanes = []
    for x, alpha, beta in zip(*(a.tolist() for a in _master_points(*zip(*points)))):
        if alpha != 0.0:
            lanes.append((x, 1.0 - alpha, 2.0))
        lanes += [(x, 1.0, 2.0), (1.0 - x, 1.0, 0.5), (1.0 - x, 1.0 - beta, 2.0),
                  (1.0 - x, 1.0, 2.0), (x, 1.0, 0.5)]
    return lanes


# The lanes (1-r, 1+J, 1) and (1-r, 1+J, y) of G_J at y < 0.1 in
# `_binomial_integral`, r = 1/p: c+1-s = 1-r-J <= 0, so `_power_integral`
# sums them by the series on s.
_EULER_LANES = [(1.0 - 1.0 / p, 1.0 + J, z) for p in (1.05, 2.0, 3.0, 12.0)
                for J in (1, 2, 7, 30, 90) for z in (1.0, 0.0, 1e-6, 0.05, 0.0999)]


# The six families on a 1001-point grid from x = 1/6000, two long lanes (743
# and 268 terms), and the Euler lanes.
_MIXED_LANES = (_six_families([k / 6000.0 for k in range(1, 3001, 3)] + [0.5])
                + [(0.5, -200.0, 2.0), (0.3, -40.0, 2.0)] + _EULER_LANES)


class TestBatchedSeries:
    def test_lanes_equal_the_scalar_loop(self):
        """Summed together, in steps that mix families and both series,
        every lane has the value, estimate and term count of its series
        summed alone; so do the long lanes (743 and 268 terms, and the
        J = 90 lanes at z = 1)."""
        lanes = _MIXED_LANES
        assert lanes[0][0] == 1.0 / 6000.0
        value, estimate, terms = _power_integral(*np.array(lanes).T)
        euler = len(_EULER_LANES)
        assert terms[-euler - 2:-euler].tolist() == [743, 268]
        assert terms[-euler:].max() > 128
        for lane, v, e, k in zip(lanes, value.tolist(), estimate.tolist(), terms.tolist()):
            assert (v, e, k) == _power_integral_reference(*lane), lane

    # One lane per stop index K on either side of 32, 64 and 96, and
    # P(500.5, 1, 1), the eps-family's series at eps = 1000 and p = 2, which
    # needs 794 terms.
    STOP_LANES = {31: (0.725, 0.5, 0.5), 32: (0.9775, 0.5, 0.5), 33: (0.0225, 1.0, 1.0),
                  63: (0.005, 0.5, 2.0), 64: (0.0075, 0.5, 2.0), 65: (0.01, 0.5, 2.0),
                  95: (0.03, 0.5, 3.0), 96: (0.0375, 0.5, 3.0), 97: (0.0475, 0.5, 3.0),
                  793: (500.5, 1.0, 1.0)}

    def test_stop_lanes_equal_the_scalar_loop(self):
        """Each lane of `STOP_LANES` has the value, estimate and term count
        of the scalar loop, inside a 256-lane batch and alone."""
        lanes = list(self.STOP_LANES.values())
        filler = [(k / 600.0, 1.0, 0.5) for k in range(1, 257 - len(lanes))]
        value, estimate, terms = _power_integral(*np.array(lanes + filler).T)
        assert len(value) == 256
        for i, (K, lane) in enumerate(self.STOP_LANES.items()):
            expected = _power_integral_reference(*lane)
            assert expected[2] == K + 1
            assert (value[i], estimate[i], terms[i]) == expected, lane
            alone = _power_integral(*lane)
            assert (alone[0][0], alone[1][0], alone[2][0]) == expected, lane

    def test_small_batches_equal_the_scalar_loop(self):
        """Every lane of this class, summed in batches of one, two, three,
        `_SCALAR_LANES` - 1 and `_SCALAR_LANES` lanes, has the value,
        estimate and term count of the scalar loop."""
        lanes = _MIXED_LANES + list(self.STOP_LANES.values())
        expected = [_power_integral_reference(*lane) for lane in lanes]
        for size in (1, 2, 3, quadrature._SCALAR_LANES - 1, quadrature._SCALAR_LANES):
            summed = []
            for lo in range(0, len(lanes), size):
                value, estimate, terms = _power_integral(*np.array(lanes[lo:lo + size]).T)
                summed += zip(value.tolist(), estimate.tolist(), terms.tolist())
            assert summed == expected, size

    # 100 points of `_binomial_integral` on both sides of the 0.1 split, x
    # from 0 to 95 % of its bound 2(1+y)/3: 214 G_J lanes in one batch.
    HUNDRED_Y = np.geomspace(1e-4, 20.0, 100)
    HUNDRED_POINTS = (HUNDRED_Y, 2.0 * (1.0 + HUNDRED_Y) / 3.0 * np.linspace(0.0, 0.95, 100))

    def test_float_lanes_never_enter_the_array_loop(self, monkeypatch):
        """The integrals that build their lanes as Python floats hand them to
        `_sum_lanes` and never enter `_power_integral`, whatever their
        number: the single-point integrals, the midpoint and convexity
        checks (26 and 23 points) and a 100-point binomial batch."""
        def wrapper(*args):
            raise AssertionError("entered _power_integral")

        monkeypatch.setattr(quadrature, "_power_integral", wrapper)
        beta_integral(0.3)
        F_of_y(0.05, 2.0, 0.5)   # three lanes: G_J below y = 0.1
        F_of_y(0.5, 3.0, 1.0)
        _scaled_I_of_epsilon(1e-3, 2.0)
        row_sum_alpha(1000, 3.0, 1.0, 1e-8)
        assert check_midpoint_bound(7, 2.0, 0.5, n_max=25).passed
        assert check_F_convex_max(3.0, 0.5, np.linspace(0.02, 0.48, 21)).passed
        quadrature._binomial_integral(*self.HUNDRED_POINTS, 0.5, 3.0)

    def test_a_binomial_batch_keeps_each_points_bits(self):
        """Every point of `HUNDRED_POINTS`, summed in one batch, has the
        value, estimate and term count of that point summed alone."""
        y, x = self.HUNDRED_POINTS
        batch = quadrature._binomial_integral(y, x, 0.5, 3.0)
        assert (y < 0.1).any() and (y >= 0.1).any() and batch[2].max() > 30
        for i in range(len(y)):
            alone = quadrature._binomial_integral(y[i:i + 1], x[i:i + 1], 0.5, 3.0)
            assert tuple(a[i] for a in batch) == tuple(a[0] for a in alone), (y[i], x[i])

    def test_a_long_lane_is_handed_to_the_scalar_loop(self):
        """In a batch of `_SCALAR_LANES` + 1 lanes, P(500.5, 1, 1) outlives
        the others by some 700 terms, so the scalar loop carries it on from
        the array loop's state, to the reference's value, estimate and term
        count."""
        lanes = [(500.5, 1.0, 1.0)] + [(k / 100.0, 1.0, 2.0)
                                       for k in range(1, quadrature._SCALAR_LANES + 1)]
        value, estimate, terms = _power_integral(*np.array(lanes).T)
        assert terms[0] == 794 and terms[1:].max() < 100
        for lane, v, e, k in zip(lanes, value.tolist(), estimate.tolist(), terms.tolist()):
            assert (v, e, k) == _power_integral_reference(*lane), lane

    # The tails H(N/m, 1/m) of three row sums, at (y, x, alpha, p), frozen
    # from the code that summed a long lane again from term 0; the last two
    # have a G_J lane of 187 and 277 terms.
    @pytest.mark.parametrize("args, expected", [
        ((0.00256, 1e-5, 0.5, 6.0), (6.274894355525352, 3.016246496060967e-13, 62)),
        ((0.16384, 1e-5, 0.5, 6.0), (6.0353243178294775, 7.877071797884636e-13, 187)),
        ((0.1024, 1e-4, 0.5, 12.0), (12.009356143540854, 2.2885764617111426e-12, 277)),
    ])
    def test_row_sums_keep_their_bits(self, args, expected):
        y, x, alpha, p = args
        value, estimate, terms = quadrature._binomial_integral([y], [x], alpha, p)
        assert (value[0], estimate[0], terms[0]) == expected

    def test_all_euler_batches_equal_the_scalar_loop(self):
        """Euler's lanes divide by exactly 1 in the array loop: summed
        together (100 lanes, and the first `_SCALAR_LANES` + 1 alone), each
        has the bits of `_sum_lanes` on that lane."""
        for lanes in (_EULER_LANES, _EULER_LANES[:quadrature._SCALAR_LANES + 1]):
            x, s, z = np.array(lanes).T
            assert ((1.0 - s) + x <= 0.0).all()
            value, estimate, terms = _power_integral(x, s, z)
            for i, lane in enumerate(lanes):
                alone = quadrature._sum_lanes([lane])
                assert (value[i], estimate[i], terms[i]) == tuple(a[0] for a in alone), lane

    def test_batch_scale_is_pythons_power(self, monkeypatch):
        """`_power_integral` raises 1 + z to -x (Pfaff's lanes) or -s (Euler's)
        with the bits of Python's `**` on every lane of `_MIXED_LANES`."""
        powers = []

        def spy(base, exponent):
            scale = pow_(base, exponent)
            powers.append((base.tolist(), exponent.tolist(), scale.tolist()))
            return scale

        pow_ = quadrature._pow
        monkeypatch.setattr(quadrature, "_pow", spy)
        x, s, z = np.array(_MIXED_LANES).T
        _power_integral(x, s, z)
        (base, exponent, scale), = powers
        euler = ((1.0 - s) + x <= 0.0).tolist()
        assert any(euler) and not all(euler)
        assert base == (1.0 + z).tolist()
        assert exponent == [-si if e else -xi for xi, si, e in zip(x.tolist(), s.tolist(), euler)]
        assert scale == [b ** e for b, e in zip(base, exponent)]

    def test_euler_lanes_within_their_estimates(self):
        """On the lanes with c+1-s <= 0 each estimate is positive and bounds
        the error against the 40-digit P = 2F1(s, c; c+1; -z)/c."""
        value, estimate, _ = _power_integral(*np.array(_EULER_LANES).T)
        for (c, s, z), v, e in zip(_EULER_LANES, value.tolist(), estimate.tolist()):
            assert 0.0 < e
            assert abs(v - oracles.power_integral(c, s, z)) <= e, (c, s, z)

    def test_series_length_is_capped(self):
        """A series that needs more than 2^16 terms (its value overflows long
        before) raises instead of growing the term matrix without bound."""
        with pytest.raises(DomainError, match=r"x=0\.5, s=-100000\.0, z=2\.0 needs more"), \
                np.errstate(over="ignore"):
            _power_integral([0.25, 0.5], [1.0, -1e5], [2.0, 2.0])

    def test_array_loop_caps_the_series_length(self, monkeypatch):
        """More than `_SCALAR_LANES` lanes that all need more than 2^16 terms
        stay in the array loop up to the cap, which raises there and names
        the first lane."""
        def scalar(*args):
            raise AssertionError("entered _run_lane")

        monkeypatch.setattr(quadrature, "_run_lane", scalar)
        n = quadrature._SCALAR_LANES + 1
        with pytest.raises(DomainError, match=r"^series at x=0\.5, s=-100000\.0, z=2\.0 "
                                              r"needs more than 65536 terms$"):
            _power_integral(np.linspace(0.5, 0.6, n), np.full(n, -1e5), np.full(n, 2.0))

    @pytest.mark.parametrize("bad, lane", [(517, (-0.25, 1.0, 2.0)),
                                           (3, (0.5, 1.75, -0.5)),
                                           (600, (0.0, 1.25, 2.0)),
                                           (1, (0.5, math.nan, 1.0)),
                                           (2, (0.5, math.inf, 1.0)),
                                           (3, (0.5, -math.inf, 1.0)),
                                           (4, (math.inf, 1.0, 1.0)),
                                           (5, (0.5, 1.0, math.inf))])
    def test_one_bad_lane_is_named(self, bad, lane):
        """x <= 0, z < 0 or an argument that is not finite, in any lane of a
        large batch, raises DomainError naming that lane, before any term is
        summed."""
        x = np.linspace(0.01, 0.5, 700)
        s = np.ones(700)
        z = np.full(700, 2.0)
        x[bad], s[bad], z[bad] = lane
        with pytest.raises(DomainError) as exc:
            _power_integral(x, s, z)
        assert str(exc.value).endswith(f"got x={lane[0]}, s={lane[1]}, z={lane[2]}")
        assert "terms" not in str(exc.value)
        with pytest.raises(DomainError) as alone:
            _power_integral(*lane)
        assert str(alone.value) == str(exc.value)


class TestMonotoneAndSchedule:
    def test_schedule_values(self):
        assert alpha_schedule(0.2) == 0.0
        assert alpha_schedule(1.0 / 3.0) == 0.0
        assert alpha_schedule(0.35) == 0.5
        assert alpha_schedule(2.0 / 5.0) == 0.5
        assert alpha_schedule(0.45) == 1.0
        assert alpha_schedule(0.5) == 1.0
        with pytest.raises(DomainError):
            alpha_schedule(0.0)

    def test_monotone_segments(self):
        assert check_monotone_in_x(0.0, np.linspace(0.05, 1.0 / 3.0, 6)).passed
        assert check_monotone_in_x(1.0, np.linspace(0.4, 0.5, 6)).passed

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            check_monotone_in_x(0.0, [0.3])

    def test_one_series_batch_per_inequality(self, monkeypatch):
        """All three series of all grid points of one inequality are one
        `_power_integral` call, so the check makes two."""
        calls = []

        def counted(*args):
            calls.append(len(np.atleast_1d(args[0])))
            return _power_integral(*args)

        monkeypatch.setattr(proof_checks, "_power_integral", counted)
        assert check_monotone_in_x(0.5, np.linspace(1.0 / 3.0, 0.4, 8)).passed
        assert calls == [24, 24]


class TestBernoulliAndScalars:
    def test_bernoulli_passes(self):
        grid = np.geomspace(1.0, 1e5, 80)
        for x in (0.1, 1.0 / 3.0, 0.5):
            assert check_bernoulli_steps(x, grid).passed

    def test_bernoulli_equality_point(self):
        # at x = 1/2, t = 1 the first majorization is an identity, so the
        # budget is a rounding allowance: -20 u times the largest side, 9
        rep = check_bernoulli_steps(0.5, [1.0])
        assert rep.passed
        assert abs(rep.lhs) <= 1e-12
        assert rep.error_budget == -20.0 * 2.0 ** -53 * 9.0

    def test_rejects_small_t(self):
        """A point below 1, or NaN, is an input error, not a failed check."""
        for grid in ([0.5, 2.0], [math.nan, 2.0], [2.0, math.nan]):
            with pytest.raises(DomainError, match="grid points must be >= 1"):
                check_bernoulli_steps(0.5, grid)

    def test_scalar_margins(self):
        reports = {r.name: r for r in check_scalar_constants()}
        assert len(reports) == 4
        assert all(r.passed for r in reports.values())
        assert reports["scalar_alpha0_x_1_3"].margin > 0.18
        assert reports["scalar_alpha1_x_1_2"].margin > 0.31
        assert reports["scalar_sinc_2pi_5"].margin > 1.0e-3
        assert reports["scalar_alphahalf_x_2_5"].margin > 0.09


class TestGrids:
    @pytest.mark.parametrize("check", [
        lambda grid: check_logconvexity_f(1, 2.0, 0.5, grid),
        lambda grid: check_logconvexity_g(1.0, 2.0, 0.5, grid),
        lambda grid: check_F_convex_max(2.0, 0.5, grid),
        lambda grid: check_bernoulli_steps(0.3, grid),
    ], ids=["logconvexity_f", "logconvexity_g", "F_convex_max", "bernoulli_steps"])
    @pytest.mark.parametrize("grid", [[], np.array([])])
    def test_refuses_an_empty_grid(self, check, grid):
        """Three of these used to fail inside numpy on a zero-size
        reduction; an empty grid checks nothing."""
        with pytest.raises(DomainError, match=r"^need at least one grid point$"):
            check(grid)


class TestDefaultSweep:
    def test_small_sweep_all_pass(self):
        reports = default_sweep(x_points=20)
        assert len(reports) > 50
        failed = [r for r in reports if not r.passed]
        assert failed == []
