"""Hilbert-type kernels, bilinear forms and operator application.

Every kernel in scope is, for m, n >= 1,

    k(m, n) = (m - shift)^(-e) (n - shift)^e / (m + n - symbol_shift),

with e = 1/q - 1/p where the weights carry it and e = 0 where they do not.
Each `Variant` is a row of three numbers in the table `_SHAPES`:

    variant          weights carry e  shift  symbol_shift  k(m, n)
    CLASSICAL        no               0      1             1/(m+n-1)
    WEIGHTED_MAIN    yes              0      1             (n/m)^e / (m+n-1)
    YANG_SHIFT       yes              0      0             (n/m)^e / (m+n)
    YANG_HALF_SHIFT  yes              1/2    1             ((n-1/2)/(m-1/2))^e / (m+n-1)

The K^p Hilbert matrix 1/(m+n+1) on 0-based indices is the CLASSICAL row
on m+1, n+1 (`kp.hilbert_apply`). `KernelSpec` is where this module
reads the table: `shape()` gives (e, shift, symbol_shift), from which
`_hankel` and `kernel_matrix` build every variant by one path, and
`check_norm_p` refuses a weighted spec paired with another p.

Each form has norm pi/sin(pi/p) on l^p x l^q, all kernel values are
strictly positive for m, n >= 1, and every weighted variant collapses to
its unweighted shape 1/(m+n-symbol_shift) at p = 2, where e is exactly
0.0. Each variant factors as w(m) v(n) h(m+n), a row weight
w(m) = (m - shift)^(-e), a column weight v(n) = (n - shift)^e and a Hankel
symbol h(s) = 1/(s - symbol_shift), and `_hankel(spec, M, N)` builds the
M x N section of that product: the one place its index ranges are
written. The operator K^T a is one correlation of the symbol with wa
(`_image`, on the len(a) x n_max section), the form is b paired with that
image (`_form`), and `_ratio` normalizes it with a certified budget for the
norm ascent and `verify-inequality`; the ascent (`norms`) correlates on the
N x N section. Every FFT correlation goes through `_correlate`,
O(L log L) for a transform length L, with an explicit rounding bound
(`_fft_rounding`), and every L is a power of two set by `_blocks`. A
lopsided shape, a short a onto a long image, is cut into overlap-save
blocks, which one batched `_correlate` runs together; a square section is
always one block.

Accuracy contract of the form and the operator. Below `_FFT_CROSSOVER`
products (support of a times the image length), or for a support of a
under `_FFT_MIN_SUPPORT`, the correlation is direct: all its products are
nonnegative, so every image entry, and the form, keeps a small relative
error. Otherwise it is an FFT, and the error is normwise: bounded in the
2-norm of the image by the correlation's rounding budget, summed in
squares over the blocks, which `_form` reports. A small entry far from the
mass of the product, such as the pairing of two spikes far apart, then
loses relative accuracy.

The dense `kernel_matrix` builds the kernel entry by entry; no library path
calls it. It reads `shape()` as `_hankel` does, so it is independent of
`_hankel` only in its exp/log route (`_pow_ratio`): the tests use it to check
the factorisation and the correlations, and their arbitrary-precision
references, spelled from the paper's formulas, live in `tests/oracles.py`.
It stays here because the benchmark's self-test checks that its tracing
patches it where `norms` imports it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, ParameterError, _check_count, _check_positive
from .quadrature import QuadratureResult, _binomial_integral, _check_exponents
from .sequences import Sequence, _sum2, conjugate, lp_norm


class Variant(Enum):
    CLASSICAL = "Classical"
    WEIGHTED_MAIN = "WeightedMain"
    YANG_SHIFT = "YangShift"
    YANG_HALF_SHIFT = "YangHalfShift"


# The kernel table (see the module docstring); `KernelSpec.shape()` reads it.
#           variant                  weights carry e, shift, symbol_shift
_SHAPES = {Variant.CLASSICAL:       (False, 0.0, 1.0),
           Variant.WEIGHTED_MAIN:   (True, 0.0, 1.0),
           Variant.YANG_SHIFT:      (True, 0.0, 0.0),
           Variant.YANG_HALF_SHIFT: (True, 0.5, 1.0)}


@dataclass(frozen=True)
class KernelSpec:
    variant: Variant
    p: float = 2.0

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise InvalidInputError(f"variant must be a Variant member, got {self.variant!r}")
        self.shape()        # checks p where the weights carry e

    def shape(self) -> tuple[float, float, float]:
        """(e, shift, symbol_shift), the variant's row of `_SHAPES` with e
        the weights' exponent: 0.0 where they carry none, whatever p is, and
        1/q - 1/p as computed otherwise, which is exactly 0.0 at p = 2, where
        q = 2.0 too, and small but not 0 at a p one ulp from 2. With
        `check_norm_p`, which reads only whether the weights carry e, the
        one place in this module where a variant's row is read."""
        weighted, shift, symbol_shift = _SHAPES[self.variant]
        pq = conjugate(self.p) if weighted else None
        e = 1.0 / pq.q - 1.0 / pq.p if weighted else 0.0
        return e, shift, symbol_shift

    def check_norm_p(self, p: float) -> None:
        """Refuse a weighted spec whose p is not the norm's p: its weights
        carry the e of self.p, and its ratio on l^p x l^q for another p is no
        bound on the kernel the paper norms there. The classical kernel
        carries no weights and pairs with any p."""
        if _SHAPES[self.variant][0] and self.p != p:
            raise InvalidInputError(
                f"a {self.variant.value} kernel must carry the norm's p={p}, got p={self.p}")


def _pow_ratio(num: np.ndarray, den: np.ndarray, e: float) -> np.ndarray:
    """(num/den)^e as exp(e (log num - log den)), with no overflow for large
    indices. The relative error is not uniform: it grows with
    |e log(num/den)| and reaches 1.7e-15 against 40-digit mpmath at indices
    up to 20000, where (num/den)**e stays within 2e-16."""
    if e == 0.0:
        return np.ones(np.broadcast_shapes(num.shape, den.shape))
    return np.exp(e * (np.log(num) - np.log(den)))


def kernel_matrix(spec: KernelSpec, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Kernel values on the index grid m[:, None] x n[None, :]. It takes e,
    shift and symbol_shift from `shape()` as `_hankel` does, so the dense
    grid differs from `_hankel`'s powers only in `_pow_ratio`'s exp/log
    route."""
    m = np.asarray(m, dtype=float)[:, None]
    n = np.asarray(n, dtype=float)[None, :]
    if np.any(m < 1) or np.any(n < 1):
        raise InvalidInputError("kernel indices must be >= 1")
    e, shift, symbol_shift = spec.shape()
    return _pow_ratio(n - shift, m - shift, e) / (m + n - symbol_shift)


def _hankel(spec: KernelSpec, M: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, v, h), the M x N section of the kernel as k(m, n) = w(m) v(n) h(m + n):
    row weights w on m = 1..M, column weights v on n = 1..N and the Hankel
    symbol h on s = 2..M+N, so that entry [i, j] of the section is
    w[i] v[j] h[i + j]. No other code builds these index ranges."""
    e, shift, symbol_shift = spec.shape()
    m, n, s = np.arange(1.0, M + 1.0), np.arange(1.0, N + 1.0), np.arange(2.0, M + N + 1.0)
    return (m - shift) ** -e, (n - shift) ** e, 1.0 / (s - symbol_shift)


def _correlate(spectrum: np.ndarray, x: np.ndarray, n_out: int | None = None) -> np.ndarray:
    """y_j = sum_i h[i + j] x[i] for 0 <= j < n_out (default len(x)), from
    spectrum = rfft(h, L) along its last axis, where len(h) = len(x) + n_out - 1
    and L >= len(h) is a power of two >= 2. y is entries n - 1 .. n + n_out - 2
    (n = len(x)) of the length-L circular convolution of h with x reversed;
    the linear one ends at entry 2n + n_out - 3 <= L + n - 2, so what wraps
    lands below entry n - 1. x is transformed once; a leading axis of
    spectrum holds one h per row (`_image`'s blocks), and y has it too.
    `_fft_rounding(L)` bounds the rounding error of each row."""
    n, L = len(x), 2 * (spectrum.shape[-1] - 1)
    n_out = n if n_out is None else n_out
    product = np.fft.rfft(x[::-1], L)
    # In place where the shapes allow: one transform-sized array less.
    product = np.multiply(product, spectrum, out=product if spectrum.ndim == 1 else None)
    return np.fft.irfft(product, L)[..., n - 1:n + n_out - 1]


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


# Products len(a) * n_max from which `_image` correlates by FFT. The FFT is
# faster from about 2e6 products (one Xeon VM core, whole `_image`:
# 1000 x 1000 0.15 ms direct, 0.18 ms by FFT; 2048 x 2048 0.54 and 0.28 ms;
# 10000 x 10000 29 and 2.9 ms), but below 2^22 supports up to 2000 x 2000
# keep an entrywise relative error: at 2^20 two spikes at indices 1 and 2000
# paired with p = 1.05 erred by 3.6e-15 relative.
_FFT_CROSSOVER = 1 << 22
# Shortest a correlated by FFT. With overlap-save (one Xeon VM core, whole
# `apply_operator`, FFT against direct): 2 x 2^21 232 and 69 ms (4-point
# blocks), 16 x 2^18 13 and 10 ms, 256 x 2^14 0.86 and 1.06 ms, 512 x 2^16
# 3.0 and 6.8 ms. From about 256 entries the FFT is faster, but a lower floor
# would trade the direct path's entrywise relative error for the FFT's
# normwise one on more `verify-inequality` forms.
_FFT_MIN_SUPPORT = 512


def _by_fft(size: int, n_max: int) -> bool:
    """Whether `_image` correlates a support of `size` entries onto n_max
    image entries by FFT."""
    return size >= _FFT_MIN_SUPPORT and size * n_max >= _FFT_CROSSOVER


def _blocks(size: int, n_max: int) -> tuple[int, int]:
    """(B, K): a support of `size` entries is correlated onto n_max image
    entries with K transforms of length B, each giving P = B - size + 1
    image entries (overlap-save). It is the one rule for transform lengths.
    The plan is the one of least transform work, (2K + 1) B log2 B for the
    K blocks' transforms, wa's and the K inverses: either one transform of
    L, the least power of two >= max(2, size + n_max - 1) (K = 1, kept on
    ties), or a power of two B >= 2 size below L with K = ceil(n_max / P).
    A square section, the ascent's, is always one block of length L: the
    first candidate B, the least power of two >= 2N, is never below L."""
    L = 1 << max(1, (size + n_max - 2).bit_length())
    plans = [(L, 1)]
    B = 1 << (2 * size - 1).bit_length()
    while B < L:
        plans.append((B, -(-n_max // (B - size + 1))))
        B *= 2
    return min(plans, key=lambda plan: (2 * plan[1] + 1) * plan[0] * (plan[0].bit_length() - 1))


def _image(spec: KernelSpec, av: np.ndarray,
           n_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(v, y, fft_error) with K^T a = v y on 1..n_max, for the nonnegative
    entries av of a on 1..len(av).

    y is the correlation of the symbol h with wa. Where `_by_fft` is false
    it is direct, and fft_error = 0.0 exactly. Otherwise it is overlap-save
    (Oppenheim & Schafer, Discrete-Time Signal Processing, 3rd ed., 8.7)
    with the `_blocks` plan: h, zero-padded, is cut into K blocks
    h_k = h[kP : kP + B], which overlap by len(av) - 1 entries, and block k
    gives y[kP : kP + P]. All blocks go through one batched `_correlate`.
    The blocks' outputs are disjoint, so their error norms add in squares:
    fft_error, the root-sum-square over k of
    `_fft_rounding(B)` max(|h_k|_2 |wa|_1, |h_k|_1 |wa|_2), bounds the
    2-norm of the rounding error of y. With K = 1 the one block is h padded
    to length B, and the norms are h's own."""
    w, v, h = _hankel(spec, len(av), n_max)
    wa = w * av
    if not _by_fft(len(av), n_max):
        return v, np.correlate(h, wa, "valid"), 0.0
    B, K = _blocks(len(av), n_max)
    P = B - len(av) + 1
    padded = np.zeros((K - 1) * P + B)
    padded[:len(h)] = h
    blocks = np.lib.stride_tricks.sliding_window_view(padded, B)[::P]
    y = _correlate(np.fft.rfft(blocks), wa, P).reshape(-1)[:n_max]
    # Every block but the last lies inside h; the last is summed unpadded.
    tail = h[(K - 1) * P:]
    h1 = np.append(np.sum(blocks[:-1], axis=-1), np.sum(tail))
    h2 = np.append(np.sum(blocks[:-1] * blocks[:-1], axis=-1), np.sum(tail * tail))
    per_block = np.maximum(np.sqrt(h2) * float(np.sum(wa)), h1 * math.sqrt(float(np.sum(wa * wa))))
    return v, y, _fft_rounding(B) * math.sqrt(float(np.sum(per_block * per_block)))


def _form(spec: KernelSpec, a: Sequence, b: Sequence) -> tuple[float, float]:
    """(value, budget): the form sum_{m,n} k(m,n) a_m b_n, b paired with the
    image of a from `_image`, and a bound on its error against the exact
    kernel.

    The pairing is `_sum2` of b v y on both of `_image`'s paths. The budget is

        1.01 |b v|_2 fft_error + (32 + n + 2 ln(len(a) + len(b))) u value,

    u = 2^-53. The first term is the FFT rounding, paired with b v by
    Cauchy-Schwarz; 1.01 covers the rounding of the norms and second-order
    terms. In the second, n = len(a) on the direct path, for gamma_n of its
    inner products of nonnegative terms, and 0 by FFT. The rest covers the
    kernel factors (at most 10 u, each power within 2 u, as numpy's is),
    the exponent 1/q - 1/p (off by 2 u, moving a factor by at most 2 u ln
    of the largest index sum), three products, the final rounding,
    `_sum2`'s u + gamma_(len(b)-1)^2 and gamma_n - n u; each of gamma_n - n u
    and gamma_(len(b)-1)^2 is under u for lengths up to 2^26.
    By FFT the pairing's terms t are signed, and Sum2's gamma_(len(b)-1)^2
    multiplies sum |t| <= value + |b v|_2 fft_error: one more second-order
    term.

    Each term is needed. The FFT's error scales with the norm of the whole
    symbol, so a spike at the far end of a long a paired with a short b
    (a = e_(2^18), b = e_16) errs by 95 to 433 times the relative term. On
    the direct path the relative term is the whole budget, and a single
    product can err by more than its 2 ln(len(a) + len(b)) u part
    (`YANG_HALF_SHIFT`, p = 40, a = e_3, b = e_1: 3.6 u against 2.8 u).
    """
    a.require_start(1, "a")
    b.require_start(1, "b")
    av = a.require_nonnegative("a")
    bv = b.require_nonnegative("b")
    if not av.any() or not bv.any():
        return 0.0, 0.0
    v, y, fft_error = _image(spec, av, len(bv))
    value = _sum2(bv * (v * y))
    if fft_error:
        bw = bv * v
        absolute, n = 1.01 * math.sqrt(float(np.dot(bw, bw))) * fft_error, 0
    else:
        absolute, n = 0.0, len(av)
    return value, absolute + (32.0 + n + 2.0 * math.log(len(av) + len(bv))) * 2.0 ** -53 * value


def _ratio(spec: KernelSpec, a: Sequence, b: Sequence, p: float) -> tuple[float, float]:
    """(ratio, budget): `_form`'s value over ||a||_p ||b||_q (`lp_norm`), a
    and b nonzero, and a bound on its error: `_form`'s budget over the norms
    plus (10 + |ln ||a||_p| + 3 |ln ||b||_q| + ln(len(b))/q) u ratio.

    The 10 u, u = 2^-53: the powers (2 u) and `_sum2` (u + gamma_(n-1)^2
    <= 3u/2 for n <= 2^26) move each power sum by 3.5 u, which the roots 1/p
    and 1/q scale to as much together; the roots add 2 u each, their product
    and the quotient u each. The rest is the rounded exponents:
    1/p (off by u) moves ||a||_p by u |ln ||a||_p|, 1/q (off by 2 u) moves
    ||b||_q by 2 u |ln ||b||_q|, and q (off by u) moves the sum S of b^q by
    u |ln S - H| <= u (q |ln ||b||_q| + ln(len(b))), H the entropy of the
    weights b^q/S, and the root 1/q divides that by q. So even unit vectors
    pay u ln(len(b))/q. A weighted spec must carry the norm's p
    (`KernelSpec.check_norm_p`).
    """
    pq = conjugate(p)
    spec.check_norm_p(p)
    value, budget = _form(spec, a, b)
    norm_a, norm_b = lp_norm(a, pq.p), lp_norm(b, pq.q)
    ratio = value / (norm_a * norm_b)
    terms = 10.0 + abs(math.log(norm_a)) + 3.0 * abs(math.log(norm_b)) + math.log(len(b)) / pq.q
    return ratio, budget / (norm_a * norm_b) + terms * 2.0 ** -53 * ratio


def bilinear_form(spec: KernelSpec, a: Sequence, b: Sequence) -> float:
    """sum_{m,n} k(m,n) a_m b_n, exact over the finite supports, as
    <b, K^T a> (`_form`, which also bounds its error). Its accuracy is the
    module's contract: relative on the direct path, within `_form`'s budget
    by FFT. `kernel_matrix` is the dense reference.
    """
    return _form(spec, a, b)[0]


def apply_operator(spec: KernelSpec, a: Sequence, n_max: int) -> Sequence:
    """c_n = sum_m k(m,n) a_m for 1 <= n <= n_max, as v(n) times the
    correlation of the Hankel symbol with wa (`_image`); n_max is a count >= 1.

    Below `_FFT_CROSSOVER` products len(a) n_max, or for len(a) under
    `_FFT_MIN_SUPPORT`, every entry keeps a small relative error. Otherwise
    the correlation is an FFT, and the error is normwise: ||c - K^T a||_2
    is at most max(v) times `_image`'s fft_error, plus a relative error of
    a few tens of u per entry. Entries far below the largest, such as the
    image of a spike at distant n, then lose relative accuracy.
    """
    n_max = _check_count(n_max, "n_max", 1)
    a.require_start(1, "a")
    av = a.require_nonnegative("a")
    if not av.any():
        return Sequence(1, np.zeros(n_max))
    v, y, _ = _image(spec, av, n_max)
    return Sequence(1, v * y)


# B_2k/(2k), k = 1..7: the weight of the kth Euler-Maclaurin correction.
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
               -691.0 / 32760.0, 1.0 / 12.0)


def row_sum_alpha(m: int, p: float, alpha: float, tol: float = 1e-9) -> QuadratureResult:
    """The infinite row sum  sum_n f(n),  f(n) = (m/n)^(1/p) (m+n)^(alpha-1) (m+n-1)^(-alpha),
    with a certified error estimate; m is a count >= 1.

    f is a product of three completely monotone functions of n, so it is
    completely monotone, and Euler-Maclaurin with six Bernoulli terms leaves
    a remainder with the sign of the seventh term and no larger (DLMF
    2.10(i)):

        sum_{n>=N} f(n) = int_N^inf f + f(N)/2 + sum_{k<=6} B_2k/(2k) a_(2k-1) + R,
        0 <= R <= B_14/14 a_13,

    where a_j = (-1)^j f^(j)(N)/j! >= 0. The a_j follow from
    log f(N+h) = log f(N) + sum_j (-1)^j e_j h^j, with
    j e_j = d_j = r N^-j + (1-alpha) (m+N)^-j + alpha (m+N-1)^-j, r = 1/p, as
    a_j = (1/j) sum_(i<=j) d_i a_(j-i): every product is positive, so
    nothing cancels. The head length is N = min(max(32, ceil(m/2)), 1024),
    and the head sum_{n<N} f is `math.fsum`'s. With t = m s the integral is
    int_{N/m}^inf s^(-1/p) (1+s)^(-1) (1 - 1/(m(1+s)))^(-alpha) ds, the
    binomial series `_binomial_integral` at y = N/m, x = 1/m, whose terms
    fall at least by 1/(m+N).

    `value` is head + integral + f(N)/2 + the six corrections, by one
    `math.fsum`. `error_estimate` is the seventh term, plus the series
    estimate, plus (10 + 2 ln(m+N)) u value, u = 2^-53: nine roundings in
    each summand (a quotient, three powers within 2 u each, two products),
    the fsum, and the rounding of the exponents 1/p and alpha-1, which moves
    a summand by at most ln(m+N) u each; plus 1024 u times the seven
    Bernoulli terms. Those carry f(N)'s error and at most
    ((j^2 + 13j)/2 + 2) u more from the powers of 1/N, 1/(m+N) and
    1/(m+N-1), the recurrence and the weights (171 u at j = 13), under
    1024 u for every m < 2^53, where m + N is exact. Neither value nor
    estimate depends on tol: tol only accepts the estimate, and a tol below
    it raises `ParameterError`. For p <= 12 and m <= 10^6 the estimate is at
    most 2e-13 of the value.
    """
    m = _check_count(m, "m", 1)
    _check_exponents(p, alpha)
    _check_positive(tol, "tol", ParameterError)
    u, r = 2.0 ** -53, 1.0 / p
    N = min(max(32, -(-m // 2)), 1024)
    n = np.arange(1.0, N + 1.0)
    f = ((m / n) ** r * (m + n) ** (alpha - 1.0) * (m + n - 1.0) ** -alpha).tolist()
    x0, x1, x2 = 1.0 / N, 1.0 / (m + N), 1.0 / (m + N - 1.0)
    p0 = p1 = p2 = 1.0
    d, a = [], [f[-1]]   # d_1, d_2, ... and a_0, a_1, ...
    for j in range(1, 2 * len(_EM_WEIGHTS)):
        p0, p1, p2 = p0 * x0, p1 * x1, p2 * x2
        d.append(r * p0 + (1.0 - alpha) * p1 + alpha * p2)
        a.append(sum(map(operator.mul, d, reversed(a))) / j)
    bernoulli = [w * c for w, c in zip(_EM_WEIGHTS, a[1::2])]
    tail, tail_estimate, terms = _binomial_integral([N / m], [1.0 / m], alpha, p)
    value = math.fsum(f[:-1] + [float(tail[0]), 0.5 * f[-1]] + bernoulli[:-1])
    estimate = (bernoulli[-1] + float(tail_estimate[0])
                + (10.0 + 2.0 * math.log(m + N)) * u * value
                + 1024.0 * u * math.fsum(abs(b) for b in bernoulli))
    if estimate > tol:
        raise ParameterError(
            f"row sum for m={m}, p={p} cannot reach tol={tol}: "
            f"its certified width is {estimate:.1e}")
    return QuadratureResult(value, estimate, int(terms[0]))
