"""Finitely supported real sequences, l^p norms and Hölder duality.

Two indexing conventions coexist: the bilinear-form world is 1-based and the
Taylor-coefficient world is 0-based. A `Sequence` carries its start index
explicitly, an int that is 0 or 1. Two operations re-index:
`kp_to_lp_isometry` (and its inverse) re-weights a_(m-1) into A_m, and
`kp.hilbert_apply` reads the 0-based coefficients as the 1-based classical
kernel's input and its image back. Every consumer that needs one start says
so through `Sequence.require_start`, the one check of a wrong start.

`Sequence.values` is a read-only float64 array, copied from what the caller
passed, so every layer computes on it without converting. Two sequences are
equal when their start indices and values are; a `Sequence`, and so a
`TaylorFunction`, is not hashable.

The isometries weight by (m+1)^((p-2)/p) with the exponent as computed,
which is exactly 0.0 at p = 2, so there they are the identity bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, _check_p

class _Values(np.ndarray):
    """The array type of `Sequence.values`. Iterating it yields Python
    floats, as iterating the tuple it replaced did, so code that sums or
    serialises what it iterates gets Python numbers (the benchmark's traced
    nonzero count is written to JSON). Arithmetic on it returns plain arrays.
    """

    def __iter__(self):
        return iter(self.tolist())

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = arr.view(np.ndarray)
        return arr[()] if return_scalar else arr


@dataclass(frozen=True, eq=False)
class Sequence:
    """A finitely supported real sequence.

    ``values[k]`` is the entry at index ``start_index + k``; entries beyond
    the stored block are zero. ``values`` is a read-only float64 copy of the
    values given, which iterates as Python floats; ``repr`` prints them in
    full, as a tuple of floats.
    """

    start_index: int
    values: np.ndarray

    def __post_init__(self):
        try:
            start = operator.index(self.start_index)
        except TypeError:
            start = self.start_index
        if type(start) is not int or start not in (0, 1):
            raise InvalidInputError(f"start_index must be 0 or 1, got {start!r}")
        object.__setattr__(self, "start_index", start)
        x = np.array(self.values, dtype=float)
        if x.ndim != 1:
            raise InvalidInputError(f"values must be one-dimensional, got shape {x.shape}")
        bad = np.flatnonzero(~np.isfinite(x))
        if len(bad):
            k = int(bad[0])
            raise InvalidInputError(f"non-finite entry {float(x[k])!r} at index {start + k}")
        x.setflags(write=False)
        object.__setattr__(self, "values", x.view(_Values))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return (self.start_index == other.start_index
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"Sequence(start_index={self.start_index}, values={tuple(self.values.tolist())!r})"

    def __len__(self) -> int:
        return len(self.values)

    def indices(self) -> range:
        return range(self.start_index, self.start_index + len(self.values))

    def require_start(self, start: int, what: str) -> None:
        """Raise unless the sequence starts at index `start`; `what` names it
        in the message. The only check of a consumer's start index."""
        if self.start_index != start:
            raise InvalidInputError(f"{what} must be {start}-based, got start_index={self.start_index}")

    def require_nonnegative(self, what: str = "sequence") -> np.ndarray:
        """Raise on a negative entry; otherwise return the values."""
        neg = np.flatnonzero(self.values < 0.0)
        if len(neg):
            k = int(neg[0])
            raise InvalidInputError(
                f"{what} has negative entry {float(self.values[k])} "
                f"at index {self.start_index + k}")
        return self.values


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self):
        _check_p(self.p)
        _check_p(self.q, "q")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-14:
            raise DomainError(f"({self.p}, {self.q}) are not conjugate")


def conjugate(p: float) -> ExponentPair:
    """Conjugate exponent pair (p, p/(p-1)), 1 < p < inf."""
    _check_p(p)
    return ExponentPair(p, p / (p - 1.0))


def _sum2(t: np.ndarray) -> float:
    """sum t by Sum2 (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26(6), 2005):
    the partial sums by `np.add.accumulate`, the TwoSum error of each step,
    and their sum added to the last partial sum. For n nonnegative terms
    the error is at most (u + gamma_(n-1)^2) S, u = 2^-53, gamma_k =
    k u/(1 - k u), S the exact sum: as if summed in twice the working
    precision and rounded once. Partial sums that are not finite leave the
    sum to `math.fsum(t.tolist())`, which raises `ValueError` on inf - inf
    and `OverflowError` on intermediate overflow; any other sum that is not
    finite raises `OverflowError` too, whatever the order of its terms."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.add.accumulate(t)
    if not len(s) or not math.isfinite(s[-1]):
        total = math.fsum(t.tolist())
    else:
        prev, cur = s[:-1], s[1:]
        z = cur - prev
        error = t[1:] - z
        z -= cur                # in place: at 2e4 entries new temporaries cost more than the sums
        z += prev               # prev - (cur - z)
        error += z
        total = float(s[-1]) + float(np.add.reduce(error))  # np.sum's arithmetic, less overhead
    if not math.isfinite(total):
        raise OverflowError(f"sum of {len(t)} terms is {total}, not finite")
    return total


# 2^53 times the least normal float. The powers that round as subnormals err
# by at most 2^-1075 each, so for up to 2^26 entries they move a power sum at
# or above this by under 2^-80 of itself.
_TINY_SUM = 2.0 ** -969


def _root_sum(x: np.ndarray, p: float, weight=None) -> float:
    """(sum weight x^p)^(1/p) for x >= 0, the sum by `_sum2`; a power or sum
    past the float range raises `OverflowError`. A nonzero x whose power sum
    falls below `_TINY_SUM` is summed again as max(x) times the root of the
    sum of the powers of x/max(x), which cannot underflow to 0; that adds
    the rounding of x/max(x), p u per power, and that of the product."""
    def power_sum(x):
        return _sum2(x ** p if weight is None else weight * x ** p)

    with np.errstate(over="ignore"):
        total = power_sum(x)
    top = float(x.max(initial=0.0)) if total < _TINY_SUM else 0.0
    if top == 0.0:
        return total ** (1.0 / p)
    return top * power_sum(x / top) ** (1.0 / p)


def lp_norm(s: Sequence, p: float) -> float:
    """(sum |s_m|^p)^(1/p) by `_root_sum`. The sum is `_sum2`'s: for n
    entries it errs by at most (u + gamma_(n-1)^2) of itself, beyond the
    rounding of each power; a power or sum past the float range raises
    `OverflowError`, and a nonzero s is never 0."""
    if not math.isfinite(p) or p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    return _root_sum(np.abs(s.values), p)


def _dual_align_vec(c: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(b, ||c||_p): the Hölder alignment of a nonnegative, nonzero array c,
    b = (c/||c||_p)^(p-1), the unit l^q vector with sum c_n b_n = ||c||_p,
    and the norm it divided by; the powers are of c/max(c), which cannot overflow."""
    top = float(c.max())
    norm = float(np.sum((c / top) ** p)) ** (1.0 / p)
    return (c / (top * norm)) ** (p - 1.0), top * norm


def kp_to_lp_isometry(a: Sequence, p: float) -> Sequence:
    """Map Taylor coefficients (start 0) to the 1-based l^p sequence
    A_m = a_m (m+1)^((p-2)/p), so that the l^p norm of the output equals the
    K^p norm of the input term by term."""
    conjugate(p)
    a.require_start(0, "a")
    return Sequence(1, a.values * np.arange(1.0, len(a) + 1.0) ** ((p - 2.0) / p))


def lp_to_kp_isometry(A: Sequence, p: float) -> Sequence:
    """Inverse of `kp_to_lp_isometry`: 1-based l^p sequence back to 0-based
    Taylor coefficients."""
    conjugate(p)
    A.require_start(1, "A")
    return Sequence(0, A.values / np.arange(1.0, len(A) + 1.0) ** ((p - 2.0) / p))


def write_sequence(path, s: Sequence) -> None:
    """Write the plain-text sequence format: a `# start_index=<0|1>` header
    followed by `index,value` lines."""
    with open(path, "w") as fh:
        fh.write(f"# start_index={s.start_index}\n")
        for i, v in zip(s.indices(), s.values.tolist()):
            fh.write(f"{i},{v!r}\n")


def read_sequence(path) -> Sequence:
    """Read the format written by `write_sequence`. A line that does not
    parse, a second start_index header, a start_index that `Sequence`
    refuses, an index outside int64 or a value that is not finite raises
    `InvalidInputError` naming the file and line, the first such line."""
    start = None
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.startswith("start_index="):
                        if start is not None:
                            raise InvalidInputError(f"a second '# start_index=' header, "
                                                    f"after line {start_line}")
                        start = Sequence(int(body.split("=", 1)[1]), ()).start_index
                        start_line = lineno
                    continue
                idx_text, val_text = line.split(",", 1)
                idx, value = int(idx_text), float(val_text)
            except InvalidInputError as exc:
                raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
            except ValueError:
                raise InvalidInputError(f"{path}: line {lineno}: cannot parse {line!r}") from None
            if not -2 ** 63 <= idx < 2 ** 63:
                raise InvalidInputError(f"{path}: line {lineno}: index {idx} out of range")
            if not math.isfinite(value):
                raise InvalidInputError(f"{path}: line {lineno}: value {value!r} is not finite")
            if idx in entries:
                raise InvalidInputError(f"{path}: index {idx} appears more than once")
            entries[idx] = value
    if start is None:
        raise InvalidInputError(f"{path}: missing '# start_index=' header")
    if not entries:
        return Sequence(start, ())
    top = max(entries)
    if min(entries) < start:
        raise InvalidInputError(f"{path}: entry index below start_index {start}")
    index = np.fromiter(entries, int, len(entries))
    index -= start
    values = np.zeros(top - start + 1)   # an impossible size raises MemoryError here
    values[index] = np.fromiter(entries.values(), float, len(entries))
    return Sequence(start, values)
