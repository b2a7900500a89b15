"""Certified lower bounds on the operator norms, approaching pi/sin(pi/p).

Two estimators:

* the extremal power-decay family a_m = m^(-(1+eps)/p), b_n = n^(-(1+eps)/q),
  whose normalized form value is bounded below through the reduced
  one-dimensional integral I(eps) and an upper bound on its norm sum: the
  terms m < 1024 summed, the rest bounded by the midpoint step of the proof
  chain. No truncation is a parameter, and eps may be any finite positive
  float;
* alternating Hölder-alignment ascent on an N x N truncation, a lower bound
  through feasible unit vectors. Both of its products are Hankel
  correlations done by FFT, O(N log N) per matvec and O(N) memory, and the
  reported bound is the final pair's ratio certified by `kernels._ratio`.
  Every positive start reaches the same maximizer (Boyd), so a ladder of
  sections warm-starts each from the one before, and only the final pair is
  certified, whatever the start. At p = 1.5, on one core of a 2.1 GHz Xeon
  VM, N = 2^16 took 0.3-0.4 s and N = 2^18 1.4-1.9 s from the constant
  vector, with traced peaks of 8 and 32 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError, _check_count, _check_positive
from .kernels import KernelSpec, _blocks, _correlate, _hankel, _ratio
# bench/test_bench.py checks that the benchmark's tracing patches this name here.
from .kernels import kernel_matrix  # noqa: F401
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .quadrature import _scaled_I_of_epsilon
from .sequences import Sequence, _dual_align_vec, conjugate, lp_to_kp_isometry

# `_phi_upper` sums the terms m < _PHI_HEAD and bounds the rest by integrals.
_PHI_HEAD = 1024


def theoretical_norm(p: float) -> float:
    """pi/sin(pi/p), the exact norm of every kernel in `Variant`, as a float;
    `beta_integral(1/p)` certifies it within its error estimate."""
    conjugate(p)
    return math.pi / math.sin(math.pi / p)


@dataclass(frozen=True)
class NormEstimate:
    lower_bound: float
    trace: tuple[float, ...]
    # What the certified bound subtracts from the ascent's form ratio: tests
    # hold exact - lower_bound to twice it, and a Schur upper bound would report it.
    rounding_budget: float
    # The final unit pair, ||a||_p = ||b||_q = 1: a warm-starts the next
    # section size, and b is the Schur test's other weight. Arrays do not
    # compare with ==, so equality and hashing leave them out.
    a: np.ndarray = field(compare=False, repr=False)
    b: np.ndarray = field(compare=False, repr=False)


def epsilon_family(eps: float, p: float, M: int) -> tuple[Sequence, Sequence]:
    """Truncations of the extremal pair on indices 1..M, a count >= 1."""
    _check_positive(eps, "eps")
    M = _check_count(M, "M", 1)
    pq = conjugate(p)
    m = np.arange(1, M + 1, dtype=float)
    a = m ** (-(1.0 + eps) / pq.p)
    b = m ** (-(1.0 + eps) / pq.q)
    return Sequence(1, a), Sequence(1, b)


def _phi_upper(eps: float) -> float:
    """Upper bound on phi(eps) = sum_{m>=1} m^(-1-eps) - 1/eps.

    The terms m < N = _PHI_HEAD are summed by `math.fsum`. m^(-1-eps) is
    convex, so each term from N on is at most its integral over
    [m - 1/2, m + 1/2], the midpoint step of `check_midpoint_bound`; those
    integrals sum to (N - 1/2)^(-eps)/eps. Less 1/eps, that is
    expm1(-eps ln(N - 1/2))/eps, in which nothing cancels. It lies above
    -ln(N - 1/2) by at most eps ln(N - 1/2)^2/2, so raising it to that floor
    is safe; the floor only acts at subnormal eps, where the product
    eps ln(N - 1/2) loses digits. The bound exceeds phi by about
    (1 + eps) N^(-2-eps)/24, at most 4e-8.

    The rounding term covers the rounded exponent -1 - eps, which moves the
    head by at most a relative 2 u ln N, the powers and the sum (a few u
    each), the four operations of the tail and the final sum.
    """
    m = np.arange(1.0, _PHI_HEAD)
    head = math.fsum((m ** (-1.0 - eps)).tolist())
    log_n = math.log(_PHI_HEAD - 0.5)
    tail = max(math.expm1(-eps * log_n) / eps, -log_n)
    return head + tail + (2.0 * math.log(_PHI_HEAD) + 10.0) * 2.0 ** -53 * (head - tail)


def epsilon_family_ratio(eps: float, p: float) -> float:
    """Certified lower bound for the normalized form value of the extremal
    family, eps I(eps) / (1 + eps phi(eps)), where phi(eps) is
    sum_m m^(-1-eps) - 1/eps.

    Every ingredient errs downward: eps I(eps) has the error estimate of its
    series (`_scaled_I_of_epsilon`) subtracted, and the denominator uses the
    upper bound `_phi_upper`, so the reported ratio never overshoots the
    supremum it approaches. phi lies in (0, 1), as 1/eps < zeta(1 + eps) <
    1/eps + 1, so the bound is clipped to [0, 1]. eps I(eps) is summed
    without the factor 1/eps, so eps may be any finite positive float.

    The same value bounds the K^p operator norm from below: the K^p -> l^p
    re-weighting preserves norms, so the bound carries over unchanged.
    """
    eps_I, estimate, _ = _scaled_I_of_epsilon(eps, p)
    # the same sum governs both norm corrections, so their powers 1/p and
    # 1/q multiply to 1 + eps*phi
    phi_upper = min(max(_phi_upper(eps), 0.0), 1.0)
    return (eps_I - estimate) / (1.0 + eps * phi_upper)


def _stretched_start(start, N: int, p: float) -> np.ndarray:
    """A positive vector of any length N0 as a unit l^p vector of length N:
    log a sampled at m N0/N, m = 1..N, linear in log m between the entries
    and extended below index 1 by m^(-1/p). The kernels are homogeneous of
    degree -1 up to O(1/m) shifts, so the maximizer of a section is close
    to N^(-1/p) phi(m/N) for one shape phi, and the stretch keeps that
    shape. An entry that underflowed to 0 is read as the smallest normal
    float, and the largest entry is scaled to 1 before the exponential, so
    no logarithm, power or norm meets a 0."""
    s = np.asarray(start, dtype=float)
    if s.ndim != 1 or len(s) == 0 or not np.all((s >= 0.0) & (s < math.inf)) or not s.any():
        raise ParameterError("start must be a nonempty 1-D array of finite entries >= 0, "
                             "not all 0")
    at = np.log(np.arange(1.0, N + 1.0) * (len(s) / N))
    log_a = np.interp(at, np.log(np.arange(1.0, len(s) + 1.0)),
                      np.log(np.maximum(s, np.finfo(float).tiny)))
    log_a -= np.minimum(at, 0.0) / p
    a = np.exp(log_a - log_a.max())
    return a / float(np.sum(a ** p)) ** (1.0 / p)


def ascent_lower_bound(spec: KernelSpec, p: float, N: int, iters: int = 2000, *,
                       start=None) -> NormEstimate:
    """Alternating maximization of the bilinear form over the unit balls of
    the N x N truncation: the power method for l^p norms of a nonnegative
    matrix (Boyd, Linear Algebra Appl. 9, 1974), in which every positive
    start reaches the same maximizer. So `start`, normally the final `a` of
    a smaller section, may be any positive vector of any length: it is
    stretched to length N (`_stretched_start`) and only saves iterations.
    Without it the ascent starts from the constant unit vector. Each half
    step is an exact one-ball maximization, so the objective trace is
    nondecreasing up to rounding. It stops once an objective is within a
    relative 1e-12 of the one two half steps before; `iters` is a safety
    cap that no measured run reached (for p in [1.05, 40], at most 18
    iterations from the constant vector and 13 from the previous size of
    the ladder 16, 64, ..., 2^16). N and iters are counts >= 1.

    p is the norm's exponent. A weighted spec must carry the same p: its
    weights are those of spec.p, so another p raises `InvalidInputError`
    (`KernelSpec.check_norm_p`) before the first iteration. The classical
    kernel carries no weights and is ascended at any p.

    Both products are Hankel correlations, K^T a = v (h corr wa) and
    K b = w (h corr vb), on the N x N section of `kernels._hankel`, so one
    zero-padded FFT of the symbol h serves every iteration: each product is
    one rfft and one irfft of the length L that `kernels._blocks` gives the
    square section, its one block (the least power of two >= 2N - 1, and
    2 at N = 1), O(N log N) time and O(N) memory.

    `lower_bound` is certified, whatever the start: `kernels._ratio` pairs
    the final a and b once more, and `rounding_budget` is its budget. Each
    half step's norm is the one `_dual_align_vec` divided by, so the trace
    costs no power sum of its own.
    """
    N, iters = _check_count(N, "N", 1), _check_count(iters, "iters", 1)
    pq = conjugate(p)
    spec.check_norm_p(p)
    w, v, h = _hankel(spec, N, N)
    spectrum = np.fft.rfft(h, _blocks(N, N)[0])
    if start is None:
        a = np.full(N, 1.0 / N ** (1.0 / pq.p))    # the unit vector of equal entries
    else:
        a = _stretched_start(start, N, pq.p)
    trace: list[float] = []
    for _ in range(iters):
        c = v * _correlate(spectrum, w * a)     # K^T a, pairs against b in l^q
        b, obj_b = _dual_align_vec(c, pq.p)
        trace.append(obj_b)
        d = w * _correlate(spectrum, v * b)     # K b, pairs against a in l^p
        a, obj_a = _dual_align_vec(d, pq.q)
        trace.append(obj_a)
        if len(trace) >= 4 and abs(trace[-1] - trace[-3]) <= 1e-12 * trace[-1]:
            break
    del w, v, h, spectrum, c, d     # `_ratio` makes its own: half the peak again if kept
    ratio, budget = _ratio(spec, Sequence(1, a), Sequence(1, b), p)
    return NormEstimate(ratio - budget, tuple(trace), budget, a, b)


def kp_ratio(f: TaylorFunction, p: float, n_max: int) -> float:
    """||H f||_{K^p} (image truncated at n_max) / ||f||_{K^p}; a lower bound
    of the true image ratio since only nonnegative tail terms are dropped."""
    conjugate(p)
    denom = kp_norm(f, p)
    if denom == 0.0:
        raise DegenerateInputError("kp_ratio of the zero function")
    return kp_norm(hilbert_apply(f, n_max), p) / denom


def pushed_epsilon_family(eps: float, p: float, M: int) -> TaylorFunction:
    """The extremal l^p family pulled back to Taylor coefficients through the
    inverse of the norm-preserving re-weighting."""
    a, _ = epsilon_family(eps, p, M)
    return TaylorFunction(lp_to_kp_isometry(a, p))

