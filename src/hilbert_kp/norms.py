"""Certified lower bounds on the operator norms, approaching pi/sin(pi/p).

Two estimators:

* the extremal power-decay family a_m = m^(-(1+eps)/p), b_n = n^(-(1+eps)/q),
  whose normalized form value is bounded below through the reduced
  one-dimensional integral I(eps) together with certified brackets for the
  two norm sums;
* alternating Hölder-alignment ascent on an N x N truncation, a lower bound
  through feasible unit vectors. Both of its products are Hankel
  correlations done by FFT, O(N log N) per matvec and O(N) memory, and the
  reported bound subtracts an explicit rounding budget for them (Higham,
  Thm 24.2). At p = 1.5, on one core of a 2.1 GHz Xeon VM, N = 2^16 took
  0.30 s and N = 2^18 1.6 s, with traced peaks of 8 and 32 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientTruncationError, ParameterError
from .kernels import KernelSpec, _correlate, _fft_rounding, _hankel
# bench/test_bench.py checks that the benchmark's tracing patches this name here.
from .kernels import kernel_matrix  # noqa: F401
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .quadrature import I_of_epsilon
from .sequences import Sequence, conjugate, lp_to_kp_isometry, power_tail_bound

TRUNCATION_CAP = 10 ** 7


def theoretical_norm(p: float) -> float:
    """pi/sin(pi/p), the exact operator norm for every kernel in scope."""
    conjugate(p)
    return math.pi / math.sin(math.pi / p)


@dataclass(frozen=True)
class NormEstimate:
    lower_bound: float
    p: float
    method: str            # "EpsilonFamily" or "Ascent"
    params: str
    trace: tuple[float, ...] = field(default=())
    rounding_budget: float | None = None   # subtracted from an Ascent bound


@dataclass(frozen=True)
class SharpnessPoint:
    eps: float
    ratio: float
    phi_bound: float

    def __post_init__(self):
        if not 0.0 <= self.phi_bound <= 1.0:
            raise ParameterError(f"phi bound must lie in [0, 1], got {self.phi_bound}")


def epsilon_family(eps: float, p: float, M: int) -> tuple[Sequence, Sequence]:
    """Truncations of the extremal pair on indices 1..M."""
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    pq = conjugate(p)
    m = np.arange(1, M + 1, dtype=float)
    a = m ** (-(1.0 + eps) / pq.p)
    b = m ** (-(1.0 + eps) / pq.q)
    return Sequence(1, tuple(a)), Sequence(1, tuple(b))


def default_truncation(eps: float) -> int:
    """Smallest power of 10 whose norm-sum bracket slack M^-(1+eps) is below
    1e-6, capped at 10^7."""
    M = 10 ** math.ceil(6.0 / (1.0 + eps))
    if M > TRUNCATION_CAP:
        raise InsufficientTruncationError(
            f"eps = {eps} needs truncation {M} beyond the cap {TRUNCATION_CAP}", M)
    return M


def _norm_sum_bracket(eps: float, M: int) -> tuple[float, float]:
    """Certified enclosure of sum_m m^(-1-eps): (partial sum, upper tail)."""
    m = np.arange(1, M + 1, dtype=float)
    partial = float(np.sum(m ** (-1.0 - eps)))
    return partial, power_tail_bound(M, 1.0 + eps)


def epsilon_family_ratio(eps: float, p: float, M: int | None = None,
                         tol: float = 1e-10) -> SharpnessPoint:
    """Certified lower bound for the normalized form value of the extremal
    family, via the reduced integral I(eps) and upper brackets for the two
    power-sum corrections.

    Every ingredient errs downward: the integral value has its quadrature
    estimate subtracted, and the denominators use tail-inflated upper bounds
    for the correction terms, so the reported ratio never overshoots the
    supremum it approaches.

    The same value bounds the K^p operator norm from below: the K^p -> l^p
    re-weighting preserves norms, so the bound carries over unchanged.
    """
    minimal = default_truncation(eps)
    if M is None:
        M = minimal
    elif M < minimal:
        raise InsufficientTruncationError(
            f"M = {M} leaves a norm-sum bracket slack above 1e-6; "
            f"need at least {minimal}", minimal)
    conjugate(p)
    partial, tail = _norm_sum_bracket(eps, M)
    # phi = sum m^(-1-eps) - 1/eps; the same sum governs both norm
    # corrections, so their powers 1/p and 1/q multiply to 1 + eps*phi
    phi_upper = min(max(partial + tail - 1.0 / eps, 0.0), 1.0)
    res = I_of_epsilon(eps, p, tol)
    eps_I_lower = eps * res.value - eps * res.error_estimate
    return SharpnessPoint(eps, eps_I_lower / (1.0 + eps * phi_upper), phi_upper)


def _dual_align_vec(c: np.ndarray, p: float) -> np.ndarray:
    """Vectorized Hölder alignment: the unit l^q vector pairing to ||c||_p."""
    norm = float(np.sum(c ** p)) ** (1.0 / p)
    return (c / norm) ** (p - 1.0)


def ascent_lower_bound(spec: KernelSpec, p: float, N: int, iters: int,
                       seed: int | None = None, rel_tol: float = 1e-12) -> NormEstimate:
    """Alternating maximization of the bilinear form over the unit balls of
    the N x N truncation. Each half step is an exact one-ball maximization,
    so the objective trace is nondecreasing up to rounding.

    Both products are Hankel correlations, K^T a = v (h corr wa) and
    K b = w (h corr vb), so one zero-padded FFT of the symbol h serves every
    iteration: each product is one rfft and one irfft of length
    L >= 2N - 1, O(N log N) time and O(N) memory.

    `lower_bound` is certified: the final form B(a, b) = <a, K b> is taken
    from the last half step, and `rounding_budget` is subtracted from
    B(a, b)/(||a||_p ||b||_q). The budget has two parts.

    * Absolute: the FFT rounding bound `kernels._fft_rounding(L)` of that
      correlation times |wa|_2 max(|h|_2 |vb|_1, |h|_1 |vb|_2). A factor 1.01
      covers the rounding of these norms and second-order terms.
    * Relative: (32 + 2 ln 2N) u, u = 2^-53. It covers the kernel factors
      (at most 10 u, taking each power to within 2 u, as numpy's is), the
      exponents 1/q - 1/p, 1/p and 1 - alpha (off by at most 2 u, which
      moves k(m, n) by at most 2 u ln 2N), three products, the compensated
      sum, the two norms (8 u together) and the final quotient (2 u).
    """
    if N < 1 or iters < 1:
        raise ParameterError(f"need N >= 1 and iters >= 1, got N={N}, iters={iters}")
    pq = conjugate(p)
    idx = np.arange(1.0, N + 1.0)
    w, v, h = _hankel(spec, idx, idx, np.arange(2.0, 2.0 * N + 1.0))
    L = 1 << max(1, (2 * N - 2).bit_length())     # a power of two >= 2N - 1
    spectrum = np.fft.rfft(h, L)
    if seed is None:
        a = np.full(N, 1.0)
    else:
        rng = np.random.Generator(np.random.Philox(seed))
        a = rng.random(N) + 0.5   # strictly positive start
    a /= float(np.sum(a ** pq.p)) ** (1.0 / pq.p)
    trace: list[float] = []
    for _ in range(iters):
        c = v * _correlate(spectrum, w * a)     # K^T a, pairs against b in l^q
        obj_b = float(np.sum(c ** pq.p)) ** (1.0 / pq.p)
        trace.append(obj_b)
        b = _dual_align_vec(c, pq.p)
        d = w * _correlate(spectrum, v * b)     # K b, pairs against a in l^p
        obj_a = float(np.sum(d ** pq.q)) ** (1.0 / pq.q)
        trace.append(obj_a)
        a = _dual_align_vec(d, pq.q)
        if len(trace) >= 4 and abs(trace[-1] - trace[-3]) <= rel_tol * trace[-1]:
            break
    norm_ab = (math.fsum((a ** pq.p).tolist()) ** (1.0 / pq.p)
               * math.fsum((b ** pq.q).tolist()) ** (1.0 / pq.q))
    ratio = math.fsum((a * d).tolist()) / norm_ab
    vb = v * b
    fft_error = (_fft_rounding(L) * math.sqrt(float(np.sum((w * a) ** 2)))
                 * max(math.sqrt(float(np.sum(h * h))) * float(np.sum(vb)),
                       float(np.sum(h)) * math.sqrt(float(np.sum(vb * vb)))))
    budget = 1.01 * fft_error / norm_ab + (32.0 + 2.0 * math.log(2.0 * N)) * 2.0 ** -53 * ratio
    return NormEstimate(ratio - budget, p, "Ascent",
                        f"N={N},iters={iters},seed={seed}", tuple(trace), budget)


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

