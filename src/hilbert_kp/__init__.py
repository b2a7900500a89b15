"""Weighted Hilbert-type bilinear forms, operator-norm bounds on sequence and
coefficient spaces, and numerical certification of the underlying proof
chain."""

from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    ParameterError,
)
from .kernels import (
    KernelSpec,
    Variant,
    apply_operator,
    bilinear_form,
    row_sum_alpha,
)
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .norms import (
    NormEstimate,
    ascent_lower_bound,
    epsilon_family,
    epsilon_family_ratio,
    kp_ratio,
    pushed_epsilon_family,
    theoretical_norm,
)
from .proof_checks import (
    CheckReport,
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
from .quadrature import (
    F_of_y,
    QuadratureResult,
    beta_integral,
)
from .sequences import (
    ExponentPair,
    Sequence,
    conjugate,
    kp_to_lp_isometry,
    lp_norm,
    lp_to_kp_isometry,
    read_sequence,
    write_sequence,
)

__version__ = "0.1.0"
