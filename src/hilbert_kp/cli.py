"""Command-line front end: verification suites, sweeps and estimators.

All reports are CSV. Given the same configuration (including the seed) the
emitted CSV body is byte-identical across runs; timestamps only ever appear
on `#`-prefixed comment lines.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time

import numpy as np

from . import kernels, norms, proof_checks, quadrature
from .errors import AccuracyError
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .sequences import Sequence, conjugate, lp_norm, read_sequence, write_sequence

def _emit(out: str | None, header: list[str], rows: list[list],
          comments: list[str] | None = None) -> None:
    buf = io.StringIO()
    buf.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    for line in comments or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if out:
        with open(out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def random_pair(rng: np.random.Generator, p: float, max_support: int) -> tuple[Sequence, Sequence]:
    """Heavy-tailed test pair stressing near-extremal decay: entries
    u^(-1/(2p)) kept with probability 0.7, u uniform on (0, 1]."""
    def one(expo: float) -> Sequence:
        size = int(round(math.exp(rng.uniform(0.0, math.log(max_support)))))
        u = 1.0 - rng.random(size)    # uniform on (0, 1]
        vals = np.where(rng.random(size) < 0.7, u ** (-1.0 / (2.0 * expo)), 0.0)
        if not np.any(vals):
            vals[0] = 1.0
        return Sequence(1, tuple(vals))
    q = conjugate(p).q
    return one(p), one(q)


def cmd_verify_inequality(args: argparse.Namespace) -> int:
    rng = np.random.Generator(np.random.Philox(args.seed))
    q = conjugate(args.p).q
    bound = norms.theoretical_norm(args.p)
    specs = [
        kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=args.p),
        kernels.KernelSpec(kernels.Variant.YANG_SHIFT, p=args.p),
        kernels.KernelSpec(kernels.Variant.YANG_HALF_SHIFT, p=args.p),
    ]
    rows = []
    failures = 0
    for trial in range(args.trials):
        a, b = random_pair(rng, args.p, args.max_support)
        denom = lp_norm(a, args.p) * lp_norm(b, q)
        for spec in specs:
            ratio = kernels.bilinear_form(spec, a, b) / denom
            ok = ratio <= bound + args.tol
            failures += 0 if ok else 1
            rows.append([trial, spec.variant.value, args.p, len(a), len(b),
                         f"{ratio:.15g}", f"{bound:.15g}", int(ok)])
    _emit(args.out, ["trial", "kernel", "p", "support_a", "support_b", "ratio", "bound", "ok"],
          rows, [f"seed={args.seed} trials={args.trials} max_support={args.max_support}"])
    return 0 if failures == 0 else 1


def cmd_proof_check(args: argparse.Namespace) -> int:
    if args.scalars_only:
        reports = proof_checks.check_scalar_constants()
    else:
        reports = proof_checks.default_sweep(x_points=args.x_grid_size)
    rows = [[r.name, r.parameters, f"{r.lhs:.15g}", f"{r.rhs:.15g}",
             f"{r.margin:.15g}", f"{r.error_budget:.3g}", int(r.passed)]
            for r in reports]
    config = "scalars_only" if args.scalars_only else f"x_grid_size={args.x_grid_size}"
    _emit(args.out, ["name", "parameters", "lhs", "rhs", "margin", "error_budget", "passed"],
          rows, [config])
    return 0 if all(r.passed for r in reports) else 1


def cmd_norm_bounds(args: argparse.Namespace) -> int:
    theoretical = norms.theoretical_norm(args.p)
    rows = []
    for eps in args.eps_grid:
        try:
            point = norms.epsilon_family_ratio(eps, args.p)
            rows.append(["EpsilonFamily", args.p, f"eps={eps}",
                         f"{point.ratio:.12g}", f"{theoretical:.12g}",
                         f"{theoretical - point.ratio:.12g}"])
        except norms.InsufficientTruncationError as exc:
            rows.append(["EpsilonFamily", args.p, f"eps={eps}",
                         "error", f"{theoretical:.12g}", f"needs M={exc.minimal_m}"])
    spec = kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=args.p)
    for N in args.ascent_sizes:
        est = norms.ascent_lower_bound(spec, args.p, N, args.iters, seed=args.seed or None)
        rows.append(["Ascent", args.p, f"N={N}",
                     f"{est.lower_bound:.12g}", f"{theoretical:.12g}",
                     f"{theoretical - est.lower_bound:.12g}"])
    _emit(args.out, ["method", "p", "params", "lower_bound", "theoretical", "gap"], rows,
          [f"p={args.p} seed={args.seed}"])
    return 0


def cmd_kp_apply(args: argparse.Namespace) -> int:
    conjugate(args.p)
    f = TaylorFunction(read_sequence(args.input))
    image = hilbert_apply(f, args.n_max)
    if args.image_out:
        write_sequence(args.image_out, image.coeffs)
    rows = [["input_kp_norm", f"{kp_norm(f, args.p):.15g}"],
            ["image_kp_norm_truncated", f"{kp_norm(image, args.p):.15g}"],
            ["n_max", args.n_max], ["p", args.p]]
    _emit(args.out, ["quantity", "value"], rows, [f"input={args.input}"])
    return 0


def cmd_beta_table(args: argparse.Namespace) -> int:
    rows = []
    for k in range(1, args.points + 1):
        x = k / (args.points + 1.0)
        res = quadrature.beta_integral(x, args.tol)
        closed = math.pi / math.sin(math.pi * x)
        rows.append([f"{x:.12g}", f"{res.value:.15g}", f"{closed:.15g}",
                     f"{abs(res.value - closed):.3g}"])
    _emit(args.out, ["x", "beta_integral", "closed_form", "abs_err"], rows)
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1, so that no run can
    pass with nothing checked."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for tolerances, which must be finite and > 0: `--tol inf`
    would pass every comparison, and `nan` would reach the quadrature."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def positive_ints(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of `positive_int`s."""
    return tuple(positive_int(v) for v in text.split(","))


def floats(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of floats."""
    return tuple(float(v) for v in text.split(","))


class _Command(argparse.ArgumentParser):
    """A subcommand parser that rejects unknown arguments itself, so that
    the error shows the subcommand's usage instead of the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand offers exactly the flags it reads; `--out` is the
    only one they all share. Abbreviated flags are not expanded, so that
    `beta-table --p 3` is rejected instead of read as `--points 3`."""
    parser = argparse.ArgumentParser(
        prog="hilbert-kp",
        description="Weighted Hilbert-form verification suites and norm estimators")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.set_defaults(func=func)
        sp.add_argument("--out", type=str, default=None)
        return sp

    sp = command("verify-inequality", cmd_verify_inequality,
                 "random-pair ratio sweep against pi/sin(pi/p)")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tol", type=positive_float, default=1e-12)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=positive_int, default=100)
    sp.add_argument("--max-support", type=positive_int, default=2000)

    sp = command("proof-check", cmd_proof_check, "certify the full inequality proof chain")
    sp.add_argument("--x-grid-size", type=positive_int, default=300)
    sp.add_argument("--scalars-only", action="store_true")

    sp = command("norm-bounds", cmd_norm_bounds, "lower-bound ladders vs the theoretical norm")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps-grid", type=floats, default="0.5,0.1,0.05,0.01")
    sp.add_argument("--ascent-sizes", type=positive_ints, default="16,64,256,1024,4096,16384")
    sp.add_argument("--iters", type=positive_int, default=2000)

    sp = command("kp-apply", cmd_kp_apply, "apply the matrix to a coefficient file")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--image-out", type=str, default=None)

    sp = command("beta-table", cmd_beta_table, "singular integral vs closed form on a grid")
    sp.add_argument("--tol", type=positive_float, default=1e-12)
    sp.add_argument("--points", type=positive_int, default=19)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Exit status: 0 when every check passes, 1 when a
    check fails, 2 for bad input (argparse's usage errors, and any
    `ValueError`, `OSError` or `AccuracyError` a command raises, reported on
    one line)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, AccuracyError) as exc:
        print(f"hilbert-kp {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
