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
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels, norms, proof_checks, quadrature
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .sequences import Sequence, conjugate, lp_norm, read_sequence, write_sequence

KERNEL_CHOICES = {
    "classical": kernels.Variant.CLASSICAL,
    "weighted-main": kernels.Variant.WEIGHTED_MAIN,
    "yang-shift": kernels.Variant.YANG_SHIFT,
    "yang-half-shift": kernels.Variant.YANG_HALF_SHIFT,
}


@dataclass
class RunConfig:
    command: str
    p: float = 2.0
    eps_grid: tuple[float, ...] = (0.5, 0.1, 0.05, 0.01)
    x_grid_size: int = 300
    trials: int = 100
    max_support: int = 2000
    seed: int = 0
    tol: float = 1e-12
    output_path: str | None = None


def worker_count() -> int:
    """Worker cap from HF_THREADS (0 or unset = auto)."""
    raw = os.environ.get("HF_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return os.cpu_count() or 1 if n <= 0 else n


def _emit(cfg: RunConfig, header: list[str], rows: list[list],
          comments: list[str] | None = None) -> None:
    buf = io.StringIO()
    buf.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    for line in comments or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
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


def cmd_verify_inequality(cfg: RunConfig) -> int:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    q = conjugate(cfg.p).q
    bound = norms.theoretical_norm(cfg.p)
    specs = [
        kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=cfg.p),
        kernels.KernelSpec(kernels.Variant.YANG_SHIFT, p=cfg.p),
        kernels.KernelSpec(kernels.Variant.YANG_HALF_SHIFT, p=cfg.p),
    ]
    rows = []
    failures = 0
    for trial in range(cfg.trials):
        a, b = random_pair(rng, cfg.p, cfg.max_support)
        denom = lp_norm(a, cfg.p) * lp_norm(b, q)
        for spec in specs:
            ratio = kernels.bilinear_form(spec, a, b) / denom
            ok = ratio <= bound + cfg.tol
            failures += 0 if ok else 1
            rows.append([trial, spec.variant.value, cfg.p, len(a), len(b),
                         f"{ratio:.15g}", f"{bound:.15g}", int(ok)])
    _emit(cfg, ["trial", "kernel", "p", "support_a", "support_b", "ratio", "bound", "ok"],
          rows, [f"seed={cfg.seed} trials={cfg.trials} max_support={cfg.max_support}"])
    return 0 if failures == 0 else 1


def cmd_proof_check(cfg: RunConfig, scalars_only: bool = False) -> int:
    if scalars_only:
        reports = proof_checks.check_scalar_constants()
    else:
        workers = worker_count()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                reports = proof_checks.default_sweep(
                    x_points=cfg.x_grid_size, map_fn=pool.map)
        else:
            reports = proof_checks.default_sweep(x_points=cfg.x_grid_size)
    rows = [[r.name, r.parameters, f"{r.lhs:.15g}", f"{r.rhs:.15g}",
             f"{r.margin:.15g}", f"{r.error_budget:.3g}", int(r.passed)]
            for r in reports]
    _emit(cfg, ["name", "parameters", "lhs", "rhs", "margin", "error_budget", "passed"],
          rows, [f"x_grid_size={cfg.x_grid_size}"])
    return 0 if all(r.passed for r in reports) else 1


def cmd_norm_bounds(cfg: RunConfig, ascent_sizes: tuple[int, ...] = (16, 64, 256, 1024),
                    iters: int = 2000) -> int:
    theoretical = norms.theoretical_norm(cfg.p)
    rows = []
    for eps in cfg.eps_grid:
        try:
            point = norms.epsilon_family_ratio(eps, cfg.p)
            rows.append(["EpsilonFamily", cfg.p, f"eps={eps}",
                         f"{point.ratio:.12g}", f"{theoretical:.12g}",
                         f"{theoretical - point.ratio:.12g}"])
        except norms.InsufficientTruncationError as exc:
            rows.append(["EpsilonFamily", cfg.p, f"eps={eps}",
                         "error", f"{theoretical:.12g}", f"needs M={exc.minimal_m}"])
    spec = kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=cfg.p)
    for N in ascent_sizes:
        est = norms.ascent_lower_bound(spec, cfg.p, N, iters, seed=cfg.seed or None)
        rows.append(["Ascent", cfg.p, f"N={N}",
                     f"{est.lower_bound:.12g}", f"{theoretical:.12g}",
                     f"{theoretical - est.lower_bound:.12g}"])
    _emit(cfg, ["method", "p", "params", "lower_bound", "theoretical", "gap"], rows,
          [f"p={cfg.p} seed={cfg.seed}"])
    return 0


def cmd_kp_apply(cfg: RunConfig, input_path: str, n_max: int,
                 image_path: str | None = None) -> int:
    seq = read_sequence(input_path)
    f = TaylorFunction(seq)
    image = hilbert_apply(f, n_max)
    if image_path:
        write_sequence(image_path, image.coeffs)
    rows = [["input_kp_norm", f"{kp_norm(f, cfg.p):.15g}"],
            ["image_kp_norm_truncated", f"{kp_norm(image, cfg.p):.15g}"],
            ["n_max", n_max], ["p", cfg.p]]
    _emit(cfg, ["quantity", "value"], rows, [f"input={input_path}"])
    return 0


def cmd_beta_table(cfg: RunConfig, count: int = 19) -> int:
    rows = []
    for k in range(1, count + 1):
        x = k / (count + 1.0)
        res = quadrature.beta_integral(x, cfg.tol if cfg.tol < 1e-3 else 1e-10)
        closed = math.pi / math.sin(math.pi * x)
        rows.append([f"{x:.12g}", f"{res.value:.15g}", f"{closed:.15g}",
                     f"{abs(res.value - closed):.3g}"])
    _emit(cfg, ["x", "beta_integral", "closed_form", "abs_err"], rows)
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1, so that no run can
    pass with nothing checked."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert-kp",
        description="Weighted Hilbert-form verification suites and norm estimators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--tol", type=float, default=1e-12)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("verify-inequality", help="random-pair ratio sweep against pi/sin(pi/p)")
    common(sp)
    sp.add_argument("--trials", type=positive_int, default=100)
    sp.add_argument("--max-support", type=int, default=2000)

    sp = sub.add_parser("proof-check", help="certify the full inequality proof chain")
    common(sp)
    sp.add_argument("--x-grid-size", type=positive_int, default=300)
    sp.add_argument("--scalars-only", action="store_true")

    sp = sub.add_parser("norm-bounds", help="lower-bound ladders vs the theoretical norm")
    common(sp)
    sp.add_argument("--eps-grid", type=str, default="0.5,0.1,0.05,0.01")
    sp.add_argument("--ascent-sizes", type=str, default="16,64,256,1024")
    sp.add_argument("--iters", type=int, default=2000)

    sp = sub.add_parser("kp-apply", help="apply the matrix to a coefficient file")
    common(sp)
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--image-out", type=str, default=None)

    sp = sub.add_parser("beta-table", help="singular integral vs closed form on a grid")
    common(sp)
    sp.add_argument("--points", type=int, default=19)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command, p=args.p, seed=args.seed,
                    tol=args.tol, output_path=args.out)
    if args.command == "verify-inequality":
        cfg.trials = args.trials
        cfg.max_support = args.max_support
        return cmd_verify_inequality(cfg)
    if args.command == "proof-check":
        cfg.x_grid_size = args.x_grid_size
        return cmd_proof_check(cfg, scalars_only=args.scalars_only)
    if args.command == "norm-bounds":
        cfg.eps_grid = tuple(float(v) for v in args.eps_grid.split(","))
        sizes = tuple(int(v) for v in args.ascent_sizes.split(","))
        return cmd_norm_bounds(cfg, ascent_sizes=sizes, iters=args.iters)
    if args.command == "kp-apply":
        return cmd_kp_apply(cfg, args.input, args.n_max, args.image_out)
    if args.command == "beta-table":
        return cmd_beta_table(cfg, args.points)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
