"""Hilbert-type kernels, bilinear forms and operator application.

Variants:

* ``CLASSICAL``        1/(m+n-1)
* ``WEIGHTED_MAIN``    (n/m)^(1/q-1/p) / (m+n-1)
* ``YANG_SHIFT``       (n/m)^(1/q-1/p) / (m+n)
* ``YANG_HALF_SHIFT``  ((n-1/2)/(m-1/2))^(1/q-1/p) / (m+n-1)
* ``ALPHA_ROW``        (m/n)^(1/p) / ((m+n)^(1-alpha) (m+n-1)^alpha), the
  row summand of the interpolated one-row bound.

All kernel values are strictly positive for m, n >= 1, and every weighted
variant collapses to the classical kernel at p = 2. Each variant factors as
w(m) v(n) h(m+n), a row weight, a column weight and a Hankel symbol. The
form and the operator are direct convolutions over that factorisation. The
norm ascent's two products are correlations with the symbol done by FFT
(`_correlate`), O(N log N) per product and O(N) memory on an N x N section,
with an explicit rounding bound (`_fft_rounding`). The dense `kernel_matrix`
is the tests' reference for all of them; no library path builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidInputError, ParameterError
from .quadrature import QuadratureResult, adaptive_integrate
from .sequences import Sequence, conjugate, snap_exponent


class Variant(Enum):
    CLASSICAL = "Classical"
    WEIGHTED_MAIN = "WeightedMain"
    YANG_SHIFT = "YangShift"
    YANG_HALF_SHIFT = "YangHalfShift"
    ALPHA_ROW = "AlphaRow"


@dataclass(frozen=True)
class KernelSpec:
    variant: Variant
    p: float = 2.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.variant is not Variant.CLASSICAL:
            conjugate(self.p)
        if self.variant is Variant.ALPHA_ROW and not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")

    def weight_exponent(self) -> float:
        """1/q - 1/p, snapped to exactly 0 at p = 2."""
        pq = conjugate(self.p)
        return snap_exponent(1.0 / pq.q - 1.0 / pq.p)

    def serialize(self) -> str:
        return f"{self.variant.value},{self.p},{self.alpha}"


def _pow_ratio(num: np.ndarray, den: np.ndarray, e: float) -> np.ndarray:
    """(num/den)^e as exp(e (log num - log den)), with no overflow for large
    indices. The relative error is not uniform: it grows with
    |e log(num/den)| and reaches 1.7e-15 against 40-digit mpmath at indices
    up to 20000, where (num/den)**e stays within 2e-16. It stays because it
    computes the kernel by another route than `_hankel`'s powers, which
    keeps the dense grid an independent reference."""
    if e == 0.0:
        return np.ones(np.broadcast_shapes(num.shape, den.shape))
    return np.exp(e * (np.log(num) - np.log(den)))


def kernel_matrix(spec: KernelSpec, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Kernel values on the index grid m[:, None] x n[None, :]."""
    m = np.asarray(m, dtype=float)[:, None]
    n = np.asarray(n, dtype=float)[None, :]
    if np.any(m < 1) or np.any(n < 1):
        raise InvalidInputError("kernel indices must be >= 1")
    if spec.variant is Variant.CLASSICAL:
        return 1.0 / (m + n - 1.0)
    if spec.variant is Variant.WEIGHTED_MAIN:
        return _pow_ratio(n, m, spec.weight_exponent()) / (m + n - 1.0)
    if spec.variant is Variant.YANG_SHIFT:
        return _pow_ratio(n, m, spec.weight_exponent()) / (m + n)
    if spec.variant is Variant.YANG_HALF_SHIFT:
        return _pow_ratio(n - 0.5, m - 0.5, spec.weight_exponent()) / (m + n - 1.0)
    if spec.variant is Variant.ALPHA_ROW:
        s = m + n
        return (_pow_ratio(m, n, 1.0 / spec.p)
                / (s ** (1.0 - spec.alpha) * (s - 1.0) ** spec.alpha))
    raise AssertionError(spec.variant)


def kernel_value(spec: KernelSpec, m: int, n: int) -> float:
    """The coefficient multiplying a_m b_n."""
    if m < 1 or n < 1:
        raise InvalidInputError(f"kernel indices must be >= 1, got ({m}, {n})")
    return float(kernel_matrix(spec, np.array([m]), np.array([n]))[0, 0])


def _hankel(spec: KernelSpec, m: np.ndarray, n: np.ndarray,
            s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row weights w(m), column weights v(n) and Hankel symbol h(s) of the
    kernel, k(m, n) = w(m) v(n) h(m + n), on float index arrays."""
    if spec.variant is Variant.ALPHA_ROW:
        r, alpha = 1.0 / spec.p, spec.alpha
        return m ** r, n ** -r, 1.0 / (s ** (1.0 - alpha) * (s - 1.0) ** alpha)
    e = 0.0 if spec.variant is Variant.CLASSICAL else spec.weight_exponent()
    shift = 0.5 if spec.variant is Variant.YANG_HALF_SHIFT else 0.0
    h_shift = 0.0 if spec.variant is Variant.YANG_SHIFT else 1.0
    return (m - shift) ** -e, (n - shift) ** e, 1.0 / (s - h_shift)


def _correlate(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_j = sum_i h[i + j] x[i] for 0 <= j < len(x), from
    spectrum = rfft(h, L), where len(h) = 2 len(x) - 1 and L >= len(h) is a
    power of two >= 2. y is entries n - 1 .. 2n - 2 (n = len(x)) of the
    length-L circular convolution of h with x reversed; the linear one ends
    at entry 3n - 3 <= L + n - 2, so what wraps lands below entry n - 1.
    `_fft_rounding(L)` bounds its rounding error."""
    n, L = len(x), 2 * (len(spectrum) - 1)
    return np.fft.irfft(spectrum * np.fft.rfft(x[::-1], L), L)[n - 1:2 * n - 1]


def _fft_rounding(L: int) -> float:
    """kappa with  ||fl(x * y) - x * y||_2 <= kappa max(|x|_2 |y|_1, |x|_1 |y|_2)
    for nonnegative x, y, where x * y is their length-L circular convolution,
    computed as irfft(rfft(x, L) rfft(y, L), L) with L a power of two.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2)
    bounds the relative 2-norm error of one transform of t stages with twiddle
    factors accurate to mu by  eps = t eta / (1 - t eta),
    eta = mu + gamma_4 (sqrt 2 + mu). Here mu = 2u and t = log2 L + 1: one
    stage more than radix 2 needs, as margin for numpy's real-input radix-4
    passes, which are not the theorem's algorithm. For nonnegative y the
    spectrum peaks at frequency 0, so |Y|_inf = |y|_1, while
    |X|_2 = sqrt(L) |x|_2; the complex product adds sqrt(2) gamma_2 per entry
    and the 1/L scaling is exact. Collecting the two forward transforms, the
    product and the inverse transform, with theta = eps sqrt(L), gives
    kappa = eps + (1 + eps) (eps (2 + theta) + sqrt(2) gamma_2 (1 + eps) (1 + theta)).
    """
    u = 2.0 ** -53

    def gamma(k):
        return k * u / (1.0 - k * u)

    t = L.bit_length()          # log2 L + 1
    eta = 2.0 * u + gamma(4) * (math.sqrt(2.0) + 2.0 * u)
    eps = t * eta / (1.0 - t * eta)
    theta = eps * math.sqrt(L)
    return eps + (1.0 + eps) * (eps * (2.0 + theta)
                                + math.sqrt(2.0) * gamma(2) * (1.0 + eps) * (1.0 + theta))


def bilinear_form(spec: KernelSpec, a: Sequence, b: Sequence) -> float:
    """sum_{m,n} k(m,n) a_m b_n, exact over the finite supports.

    Evaluated as the Hankel sum  sum_s h(s) (wa * vb)(s)  with one direct
    convolution. Every product in it is nonnegative, so each convolution entry
    keeps a small relative error. The cost is one multiply-add per pair of
    stored entries, zeros included, so it pays while the inputs are dense:
    the CLI's random pairs are 70 % nonzero and the epsilon family 100 %.
    `kernel_matrix` is the dense reference.
    """
    if a.start_index != 1 or b.start_index != 1:
        raise InvalidInputError("bilinear form expects 1-based sequences")
    av = a.require_nonnegative("a")
    bv = b.require_nonnegative("b")
    if not av.any() or not bv.any():
        return 0.0
    w, v, h = _hankel(spec, np.arange(1.0, len(av) + 1.0), np.arange(1.0, len(bv) + 1.0),
                      np.arange(2.0, len(av) + len(bv) + 1.0))
    return math.fsum((h * np.convolve(w * av, v * bv)).tolist())


def apply_operator(spec: KernelSpec, a: Sequence, n_max: int) -> Sequence:
    """c_n = sum_m k(m,n) a_m for 1 <= n <= n_max, as v(n) times the
    correlation of the Hankel symbol with wa."""
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if a.start_index != 1:
        raise InvalidInputError("apply_operator expects a 1-based sequence")
    av = a.require_nonnegative("a")
    if not av.any():
        return Sequence(1, (0.0,) * n_max)
    w, v, h = _hankel(spec, np.arange(1.0, len(av) + 1.0), np.arange(1.0, n_max + 1.0),
                      np.arange(2.0, len(av) + n_max + 1.0))
    return Sequence(1, tuple((v * np.correlate(h, w * av, "valid")).tolist()))


# Largest head length N of `row_sum_alpha`; a tol that needs more is refused.
ROW_SUM_MAX_HEAD = 1 << 22
# Relative error of a row sum that no tol can go below: the 15-digit
# Gauss-Kronrod weights are off by up to 9.9e-15 relative, which biases the
# tail integral of a positive integrand by as much, and each summand carries
# a few ulps.
ROW_SUM_REL_FLOOR = 2e-14


def row_sum_alpha(m: int, p: float, alpha: float, tol: float = 1e-9) -> QuadratureResult:
    """The infinite row sum  sum_n f(n),  f(n) = (m/n)^(1/p) (m+n)^(alpha-1) (m+n-1)^(-alpha),
    with a certified bracket of width <= tol.

    f is a product of three completely monotone functions of n, so it is
    completely monotone, and Euler-Maclaurin brackets its tail by the first
    omitted term:

        sum_{n>=N} f(n) = int_N^inf f + f(N)/2 + R,   0 <= R <= -f'(N)/12.

    N doubles from 64 until -f'(N)/12 <= tol/4, the head sum_{n<N} f is
    summed exactly and the integral is computed by quadrature to <= tol/4.
    `value` is the top of the bracket, head + integral + f(N)/2 - f'(N)/12,
    and `error_estimate` is the bracket width -f'(N)/12 plus the quadrature
    estimate plus ROW_SUM_REL_FLOOR * value. A tol below 2 ROW_SUM_REL_FLOOR
    times the sum, or one that needs N > ROW_SUM_MAX_HEAD, raises
    `ParameterError`. -f'(N) decays like N^(-1/p-2); for p <= 12 and
    m <= 10^6, N <= 8192 at tol = 1e-8 and N <= 65536 at tol = 1e-10.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    conjugate(p)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")
    r = 1.0 / p

    def term(n):
        s = m + n
        return (m / n) ** r * s ** (alpha - 1.0) * (s - 1.0) ** -alpha

    def slope(n: int) -> float:
        """-f'(n), from the logarithmic derivatives of the three factors."""
        return term(n) * (r / n + (1.0 - alpha) / (m + n) + alpha / (m + n - 1.0))

    N = 64
    while slope(N) / 12.0 > tol / 4.0:
        N *= 2
        if N > ROW_SUM_MAX_HEAD:
            raise ParameterError(
                f"row sum for m={m}, p={p} cannot reach tol={tol}: "
                f"it needs more than {ROW_SUM_MAX_HEAD} head terms")
    head = math.fsum(term(np.arange(1.0, N)).tolist())

    def tail_integrand(v: np.ndarray) -> np.ndarray:
        # t = N/v maps [N, inf) to (0, 1], where the integrand is
        # v^(1/p-1) times a function analytic in v
        return term(N / v) * (N / v) / v

    # Declaring the singularity as v^(1/(2p)-1) substitutes v = u^(2p), which
    # leaves u times an analytic function of u^(2p): smooth enough at u = 0
    # for the Gauss-Kronrod estimate to hold even at p near 1.
    tail = adaptive_integrate(tail_integrand, 0.0, 1.0, min(tol / 4.0, 1e-12 * max(1.0, head)),
                              singularity=("lo", 1.0 - 0.5 * r))
    bernoulli = slope(N) / 12.0
    value = math.fsum([head, tail.value, 0.5 * term(N), bernoulli])
    if ROW_SUM_REL_FLOOR * value > tol / 2.0:
        raise ParameterError(
            f"row sum for m={m}, p={p} cannot reach tol={tol}: "
            f"its floor needs tol >= {2.0 * ROW_SUM_REL_FLOOR * value:.1e}")
    return QuadratureResult(value, bernoulli + tail.error_estimate + ROW_SUM_REL_FLOOR * value,
                            tail.subdivisions)
