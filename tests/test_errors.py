"""The argument rules: every public count argument is refused, with a
`ParameterError` that names it, unless it is an integer at least its least
value; numpy integers are counts too. A sequence given where another start
index is needed is refused with an `InvalidInputError` that names it."""

import numpy as np
import pytest

from hilbert_kp import (
    InvalidInputError,
    KernelSpec,
    ParameterError,
    Sequence,
    TaylorFunction,
    Variant,
    apply_operator,
    ascent_lower_bound,
    bilinear_form,
    check_logconvexity_f,
    check_midpoint_bound,
    default_sweep,
    epsilon_family,
    hilbert_apply,
    kp_ratio,
    kp_to_lp_isometry,
    lp_to_kp_isometry,
    pushed_epsilon_family,
    row_sum_alpha,
)

SPEC = KernelSpec(Variant.WEIGHTED_MAIN, p=3.0)
F = TaylorFunction.from_values([1.0, 0.5])

# (argument name, least value, a call of the public entry point with it)
COUNTS = [
    pytest.param("n_max", 1, lambda n: apply_operator(SPEC, Sequence(1, [1.0, 0.5]), n),
                 id="apply_operator.n_max"),
    pytest.param("n_max", 0, lambda n: hilbert_apply(F, n), id="hilbert_apply.n_max"),
    pytest.param("n_max", 0, lambda n: kp_ratio(F, 3.0, n), id="kp_ratio.n_max"),
    pytest.param("n_max", 1, lambda n: check_midpoint_bound(2, 2.0, 0.5, n),
                 id="check_midpoint_bound.n_max"),
    pytest.param("m", 1, lambda m: row_sum_alpha(m, 2.0, 0.5), id="row_sum_alpha.m"),
    pytest.param("m", 1, lambda m: check_logconvexity_f(m, 2.0, 0.5, [0.5, 1.0]),
                 id="check_logconvexity_f.m"),
    pytest.param("m", 1, lambda m: check_midpoint_bound(m, 2.0, 0.5, 3),
                 id="check_midpoint_bound.m"),
    pytest.param("M", 1, lambda M: epsilon_family(0.5, 2.0, M), id="epsilon_family.M"),
    pytest.param("M", 1, lambda M: pushed_epsilon_family(0.5, 2.0, M),
                 id="pushed_epsilon_family.M"),
    pytest.param("N", 1, lambda N: ascent_lower_bound(SPEC, 3.0, N), id="ascent_lower_bound.N"),
    pytest.param("iters", 1, lambda iters: ascent_lower_bound(SPEC, 3.0, 4, iters),
                 id="ascent_lower_bound.iters"),
    pytest.param("x_points", 1, lambda x_points: default_sweep(x_points),
                 id="default_sweep.x_points"),
]


@pytest.mark.parametrize("name, least, call", COUNTS)
def test_refuses_a_count_below_its_least(name, least, call):
    with pytest.raises(ParameterError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("value", [2.5, "3"])
@pytest.mark.parametrize("name, least, call", COUNTS)
def test_refuses_a_count_that_is_not_an_integer(name, least, call, value):
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("name, least, call", COUNTS)
def test_accepts_a_numpy_integer(name, least, call):
    call(np.int64(max(least, 1)))


# The start-index rule: each consumer states the start it needs, and
# `Sequence.require_start` alone refuses another, naming the argument.
WRONG_STARTS = [
    pytest.param("Taylor coefficients", 0, 1, lambda s: TaylorFunction(s), id="TaylorFunction"),
    pytest.param("a", 0, 1, lambda s: kp_to_lp_isometry(s, 3.0), id="kp_to_lp_isometry"),
    pytest.param("A", 1, 0, lambda s: lp_to_kp_isometry(s, 3.0), id="lp_to_kp_isometry"),
    pytest.param("a", 1, 0, lambda s: apply_operator(SPEC, s, 3), id="apply_operator"),
    pytest.param("a", 1, 0, lambda s: bilinear_form(SPEC, s, Sequence(1, [1.0])),
                 id="bilinear_form.a"),
    pytest.param("b", 1, 0, lambda s: bilinear_form(SPEC, Sequence(1, [1.0]), s),
                 id="bilinear_form.b"),
]


@pytest.mark.parametrize("what, start, wrong, call", WRONG_STARTS)
def test_refuses_a_wrong_start(what, start, wrong, call):
    with pytest.raises(InvalidInputError,
                       match=rf"^{what} must be {start}-based, got start_index={wrong}$"):
        call(Sequence(wrong, [1.0, 0.5]))


@pytest.mark.parametrize("start", [1.0, "1"])
def test_a_start_index_must_be_an_integer(start):
    with pytest.raises(InvalidInputError, match=rf"^start_index must be 0 or 1, got {start!r}$"):
        Sequence(start, [1.0, 0.5])


@pytest.mark.parametrize("start", [np.int64(1), True])
def test_an_integer_start_index_is_stored_as_int(start):
    s = Sequence(start, [1.0, 0.5])
    assert s.start_index == 1 and type(s.start_index) is int
    assert s == Sequence(1, [1.0, 0.5])
