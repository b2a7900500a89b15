"""The four benchmark workloads: fixed jobs against the public API of hilbert_kp.

Each workload is a closed loop with one client: one process, one thread, each
item started after the previous one finished. A workload builds its inputs in
``__init__`` and ``prepare`` (untimed), runs one whole job in ``run`` (timed)
and checks that job's outputs in ``check`` (untimed). Only ``pair_verify``
depends on the seed; the program never receives a seed for its own generator.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hilbert_kp import cli, kernels, norms, proof_checks, sequences  # noqa: E402


def sharp_constant(p: float) -> float:
    """pi/sin(pi/p), computed here rather than taken from the library."""
    return math.pi / math.sin(math.pi / p)


def read_csv_body(path) -> list[dict]:
    """Rows of a CLI report, skipping its `#` comment lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@dataclass
class Verdict:
    """Checks and items attempted and failed, with a note on each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


class ProofSweep:
    """`hilbert-kp proof-check --x-grid-size 3000` in-process, one worker."""

    name = "proof_sweep"
    X_GRID = 3000

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "proof_check.csv")
        # 2 checks per x-grid point plus the sweep's 63 fixed checks.
        self.expected_rows = 2 * self.X_GRID + 63
        # The automatic two-thread path is slower and unsteady on two cores.
        os.environ["HF_THREADS"] = "1"

    def prepare(self, rep: int) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)

    def run(self, inputs) -> int:
        return _call_cli(["proof-check", "--x-grid-size", str(self.X_GRID),
                          "--out", self.out])

    def check(self, inputs, rc) -> Verdict:
        v = Verdict()
        v.expect(rc == 0, f"proof-check exited with {rc!r}")
        try:
            rows = read_csv_body(self.out)
        except (OSError, csv.Error) as exc:
            v.expect(False, f"unreadable report: {exc}")
            return v
        for row in rows:
            v.expect(row.get("passed") == "1",
                     f"{row.get('name')} {row.get('parameters')} did not pass")
        missing = abs(self.expected_rows - len(rows))
        if missing:
            v.attempted += missing
            v.failed += missing
            v.problems.append(f"{len(rows)} rows, expected {self.expected_rows}")
        return v


@dataclass
class Pair:
    p: float
    a: list[float]
    b: list[float]
    oracle: list[float] | None    # mpmath ratios per kernel, small pairs only


class PairVerify:
    """The never-exceed property suite on heavy-tailed random pairs.

    Support sizes are the stratum midpoints of a log-uniform distribution on
    [1, 20000], the b side shifted by OFFSET strata, so every seed does the
    same amount of kernel work and the largest kernel matrix stays near
    1.6e7 entries. The seed draws the entries and the zero pattern with the
    distribution of `cli.random_pair`.
    """

    name = "pair_verify"
    PS = (1.25, 1.5, 2.0, 3.0, 6.0)
    PAIRS = 60
    MAX_SUPPORT = 20000
    OFFSET = 14
    ORACLE_SUPPORT = 32
    VARIANTS = (kernels.Variant.WEIGHTED_MAIN, kernels.Variant.YANG_SHIFT,
                kernels.Variant.YANG_HALF_SHIFT)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        log_max = math.log(self.MAX_SUPPORT)
        sizes = [round(math.exp(log_max * (k + 0.5) / self.PAIRS))
                 for k in range(self.PAIRS)]
        self.plan = [(self.PS[k % len(self.PS)], sizes[k],
                      sizes[(k + self.OFFSET) % self.PAIRS])
                     for k in range(self.PAIRS)]

    def prepare(self, rep: int) -> list[Pair]:
        rng = np.random.Generator(np.random.Philox([self.seed, rep]))

        def draw(size: int, expo: float) -> list[float]:
            u = 1.0 - rng.random(size)
            vals = np.where(rng.random(size) < 0.7, u ** (-1.0 / (2.0 * expo)), 0.0)
            if not np.any(vals):
                vals[0] = 1.0
            return vals.tolist()

        pairs = []
        for p, size_a, size_b in self.plan:
            a, b = draw(size_a, p), draw(size_b, p / (p - 1.0))
            small = max(size_a, size_b) <= self.ORACLE_SUPPORT
            pairs.append(Pair(p, a, b, oracle_ratios(p, a, b) if small else None))
        return pairs

    def run(self, pairs: list[Pair]) -> list:
        out = []
        for pair in pairs:
            try:
                q = sequences.conjugate(pair.p).q
                a = sequences.Sequence(1, pair.a)
                b = sequences.Sequence(1, pair.b)
                denom = sequences.lp_norm(a, pair.p) * sequences.lp_norm(b, q)
                out.append([kernels.bilinear_form(kernels.KernelSpec(v, p=pair.p), a, b)
                            / denom for v in self.VARIANTS])
            except Exception as exc:     # a raising item counts as failed
                out.append(exc)
        return out

    def check(self, pairs: list[Pair], out: list) -> Verdict:
        v = Verdict()
        for k, (pair, ratios) in enumerate(zip(pairs, out)):
            if isinstance(ratios, Exception):
                v.expect(False, f"pair {k} raised {ratios!r}")
                continue
            bound = sharp_constant(pair.p)
            for variant, ratio in zip(self.VARIANTS, ratios):
                v.expect(ratio <= bound + 1e-12,
                         f"pair {k} {variant.value} p={pair.p}: {ratio!r} > {bound!r}")
            for variant, ratio, ref in zip(self.VARIANTS, ratios, pair.oracle or ()):
                v.expect(abs(ratio - ref) <= 1e-12 * abs(ref),
                         f"pair {k} {variant.value} p={pair.p}: {ratio!r} vs mpmath {ref!r}")
        if len(out) != len(pairs):
            v.expect(False, f"{len(out)} results for {len(pairs)} pairs")
        return v


def oracle_ratios(p: float, a: list[float], b: list[float]) -> list[float]:
    """Form / (||a||_p ||b||_q) for the three weighted kernels, in mpmath at
    30 digits, straight from the kernel formulas."""
    import mpmath

    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        q = p / (p - 1)
        e = 1 / q - 1 / p
        kernels_ = (
            lambda m, n: (mpmath.mpf(n) / m) ** e / (m + n - 1),
            lambda m, n: (mpmath.mpf(n) / m) ** e / (m + n),
            lambda m, n: ((n - mpmath.mpf(0.5)) / (m - mpmath.mpf(0.5))) ** e / (m + n - 1),
        )
        denom = (mpmath.fsum(abs(mpmath.mpf(x)) ** p for x in a) ** (1 / p)
                 * mpmath.fsum(abs(mpmath.mpf(y)) ** q for y in b) ** (1 / q))
        return [float(mpmath.fsum(mpmath.mpf(x) * y * k(m, n)
                                  for m, x in enumerate(a, 1) if x
                                  for n, y in enumerate(b, 1) if y) / denom)
                for k in kernels_]


class NormBracket:
    """`norm-bounds` at three exponents and `kp-apply`, through `cli.main`."""

    name = "norm_bracket"
    PS = ("1.5", "2", "3")
    ASCENT_SIZES = "256,1024,4096"
    N_MAX = 4000
    # kp-apply runs at its default p = 2 on the pushed eps-family.
    EPS, P, M = 0.05, 2.0, 4000

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.coeffs = os.path.join(workdir, "coeffs.txt")
        f = norms.pushed_epsilon_family(self.EPS, self.P, self.M)
        sequences.write_sequence(self.coeffs, f.coeffs)
        # References for kp-apply: at p = 2 the K^p weight (m+1)^(p-2) is 1.
        a = np.array(f.coeffs.values)
        m = np.arange(len(a), dtype=float)[:, None]
        image = np.concatenate([a @ (1.0 / (m + n + 1.0)) for n in
                                np.array_split(np.arange(self.N_MAX + 1.0), 16)])
        self.input_norm = math.sqrt(math.fsum(a * a))
        self.image_norm = math.sqrt(math.fsum(image * image))

    def out(self, what: str) -> str:
        return os.path.join(self.workdir, f"{what}.csv")

    def prepare(self, rep: int) -> None:
        for what in (*self.PS, "kp_apply"):
            if os.path.exists(self.out(what)):
                os.remove(self.out(what))

    def run(self, inputs) -> list:
        rcs = []
        for p in self.PS:
            rcs.append(_call_cli(["norm-bounds", "--p", p, "--ascent-sizes",
                                  self.ASCENT_SIZES, "--out", self.out(p)]))
        rcs.append(_call_cli(["kp-apply", "--input", self.coeffs, "--n-max",
                              str(self.N_MAX), "--out", self.out("kp_apply")]))
        return rcs

    def check(self, inputs, rcs: list) -> Verdict:
        v = Verdict()
        for p, rc in zip(self.PS, rcs):
            v.expect(rc == 0, f"norm-bounds --p {p} exited with {rc!r}")
            try:
                rows = read_csv_body(self.out(p))
            except (OSError, csv.Error) as exc:
                v.expect(False, f"unreadable norm-bounds report: {exc}")
                continue
            bound = sharp_constant(float(p))
            eps_ratios = []
            for row in rows:
                try:
                    lower = float(row["lower_bound"])
                except (KeyError, TypeError, ValueError):
                    lower = math.nan
                v.expect(lower < bound,
                         f"p={p} {row.get('params')}: lower bound {lower!r} !< {bound!r}")
                if row.get("method") == "EpsilonFamily":
                    eps_ratios.append((float(row["params"].split("=")[1]), lower))
            rising = [r for _, r in sorted(eps_ratios, reverse=True)]
            v.expect(len(rising) == 4 and all(x < y for x, y in zip(rising, rising[1:])),
                     f"p={p}: eps-ratios {rising} do not rise as eps falls")
            v.expect(len(rows) == 7, f"p={p}: {len(rows)} rows, expected 7")
        v.expect(rcs[-1] == 0, f"kp-apply exited with {rcs[-1]!r}")
        try:
            values = {row["quantity"]: row["value"]
                      for row in read_csv_body(self.out("kp_apply"))}
            got_in = float(values["input_kp_norm"])
            got_image = float(values["image_kp_norm_truncated"])
        except (OSError, csv.Error, KeyError, ValueError) as exc:
            v.expect(False, f"unreadable kp-apply report: {exc!r}")
            return v
        v.expect(abs(got_in - self.input_norm) <= 1e-12 * self.input_norm,
                 f"input K^2 norm {got_in!r} vs {self.input_norm!r}")
        v.expect(abs(got_image - self.image_norm) <= 1e-12 * self.image_norm,
                 f"image K^2 norm {got_image!r} vs {self.image_norm!r}")
        v.expect(got_image < math.pi * got_in,
                 f"image/input {got_image / got_in!r} exceeds pi")
        return v


def _call_cli(argv: list[str]):
    try:
        return cli.main(argv)
    except Exception as exc:     # a raising invocation counts as failed
        return exc


class RowBound:
    """Certified one-row sums through the block summation of `row_sum_alpha`."""

    name = "row_bound"
    # p >= 2 is the domain of alpha_schedule(1/p).
    PS = (2.0, 2.5, 3.0)
    MS = (1, 10, 100, 1000)
    TOL = 1e-8

    def __init__(self, seed: int, workdir: str):
        pass

    def prepare(self, rep: int) -> None:
        return None

    def run(self, inputs) -> list:
        out = []
        for p in self.PS:
            for m in self.MS:
                try:
                    out.append(kernels.row_sum_alpha(
                        m, p, proof_checks.alpha_schedule(1.0 / p), tol=self.TOL))
                except Exception as exc:     # a raising item counts as failed
                    out.append(exc)
        return out

    def check(self, inputs, out: list) -> Verdict:
        v = Verdict()
        cases = [(p, m) for p in self.PS for m in self.MS]
        for (p, m), res in zip(cases, out):
            ok = (not isinstance(res, Exception)
                  and res.value + res.error_estimate < sharp_constant(p))
            v.expect(ok, f"row sum m={m} p={p}: {res!r} vs {sharp_constant(p)!r}")
        if len(out) != len(cases):
            v.expect(False, f"{len(out)} results for {len(cases)} row sums")
        return v


WORKLOADS = {w.name: w for w in (ProofSweep, PairVerify, NormBracket, RowBound)}
