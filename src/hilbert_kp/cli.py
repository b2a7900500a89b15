"""Command-line front end: verification suites, sweeps and estimators.

All reports are CSV. Given the same configuration (including the seed) the
emitted CSV body is byte-identical across runs; timestamps only ever appear
on `#`-prefixed comment lines.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, kernels, norms, proof_checks, quadrature
from .kp import TaylorFunction, hilbert_apply, kp_norm
from .sequences import Sequence, conjugate, read_sequence, write_sequence

def _emit(out: str | None, header: list[str], rows: list[str],
          comments: list[str] | None = None) -> None:
    """Write a report: the timestamp with the package version, and
    `comments`, each kept to one `#` line by `_one_line`, then the header
    joined with commas, then `rows`, each a finished body line with its
    newline. A command formats each row with one `%` string and passes any
    free-text field through `_csv_field`."""
    parts = [f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')} hilbert-kp {__version__}\n"]
    parts += [f"# {_one_line(line)}\n" for line in comments or []]
    parts.append(",".join(header) + "\n")
    parts += rows
    text = "".join(parts)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _one_line(text: str) -> str:
    """`text` with each backslash written as `\\\\`, then each carriage
    return and line feed as `\\r` and `\\n`, so that outside text, such as
    an input path, cannot split a `#` line or `main`'s error line, and two
    texts never give the same line: the escape reads back."""
    return text.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")


def _csv_field(text: str) -> str:
    """`text` as one CSV field under csv's minimal quoting: wrapped in `"`,
    with every `"` inside doubled, when it holds a comma, a `"`, a carriage
    return or a newline."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _manifest(reports: list[proof_checks.CheckReport], verdicts: list[bool]) -> list[str]:
    """One line per check family, in report order: checks passed and failed
    (each report's verdict given), the worst margin less its error budget
    (`nan` if any report's is) and, where the family sums series, the most
    terms one series needed."""
    families: dict[str, list] = {}    # name -> [passed, total, worst, terms]
    for r, ok in zip(reports, verdicts):
        slack = r.rhs - r.lhs - r.error_budget
        family = families.get(r.name)
        if family is None:
            families[r.name] = [int(ok), 1, slack, r.terms]
            continue
        family[0] += ok
        family[1] += 1
        if slack < family[2] or slack != slack:
            family[2] = slack
        if r.terms > family[3]:
            family[3] = r.terms
    lines = []
    for name, (passed, total, worst, terms) in families.items():
        line = (f"check {name} passed={passed} failed={total - passed} "
                f"worst_margin_minus_budget={worst:.6g}")
        lines.append(line + (f" max_series_terms={terms}" if terms else ""))
    return lines


def random_pair(rng: np.random.Generator, p: float, max_support: int) -> tuple[Sequence, Sequence]:
    """Heavy-tailed test pair stressing near-extremal decay: entries
    u^(-1/(2p)) kept with probability 0.7, u uniform on (0, 1]."""
    def one(expo: float) -> Sequence:
        size = int(round(math.exp(rng.uniform(0.0, math.log(max_support)))))
        u = 1.0 - rng.random(size)    # uniform on (0, 1]
        vals = np.where(rng.random(size) < 0.7, u ** (-1.0 / (2.0 * expo)), 0.0)
        if not np.any(vals):
            vals[0] = 1.0
        return Sequence(1, vals)
    q = conjugate(p).q
    return one(p), one(q)


def cmd_verify_inequality(args: argparse.Namespace) -> int:
    """Each form is one `proof_checks.CheckReport`, named for its kernel:
    the ratio and its error bound (`kernels._ratio`) are lhs and budget, and
    rhs is the certified pi/sin(pi/p) from below, `beta_integral(1/p)` less
    its estimate. The `ok` column is the report's `passed`, and the `bound`
    column the float pi/sin(pi/p). A summary line counts the forms and the
    FFT path's, with the worst budget; `_manifest` then adds one line per
    kernel, and the stages line times, in seconds, the certified bound and
    the forms: the pairs drawn and their ratios."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(args.seed))
    bound = norms.theoretical_norm(args.p)
    certified = quadrature.beta_integral(1.0 / args.p)
    certified_bound = certified.value - certified.error_estimate
    bounded = time.perf_counter()
    specs = [s for s in (kernels.KernelSpec(v, p=args.p) for v in kernels.Variant) if s.weighted]
    rows, reports, fft_forms = [], [], 0
    for trial in range(args.trials):
        a, b = random_pair(rng, args.p, args.max_support)
        fft_forms += len(specs) * kernels._by_fft(len(a), len(b))
        for spec in specs:
            ratio, budget = kernels._ratio(spec, a, b)
            r = proof_checks.CheckReport(spec.variant.value, f"trial={trial}", ratio,
                                         certified_bound, budget)
            reports.append(r)
            rows.append("%d,%s,%s,%d,%d,%.15g,%.15g,%d\n" % (
                trial, r.name, args.p, len(a), len(b), ratio, bound, r.passed))
    verdicts = [r.passed for r in reports]
    _emit(args.out, ["trial", "kernel", "p", "support_a", "support_b", "ratio", "bound", "ok"],
          rows, [f"p={args.p} seed={args.seed} trials={args.trials} "
                 f"max_support={args.max_support}",
                 f"forms={len(rows)} fft_forms={fft_forms} "
                 f"worst_budget={max(r.error_budget for r in reports):.3g}",
                 *_manifest(reports, verdicts),
                 f"stages bound_s={bounded - start:.3g} "
                 f"forms_s={time.perf_counter() - bounded:.3g}"])
    return 0 if all(verdicts) else 1


def cmd_proof_check(args: argparse.Namespace) -> int:
    """The stages line after the manifest times the sweep and the
    formatting of the body lines, in seconds."""
    start = time.perf_counter()
    reports = proof_checks.default_sweep(x_points=args.x_grid_size)
    swept = time.perf_counter()
    verdicts = [r.passed for r in reports]
    rows = ["%s,%s,%.15g,%.15g,%.15g,%.3g,%d\n" % (
                r.name, _csv_field(r.parameters), r.lhs, r.rhs, r.rhs - r.lhs,
                r.error_budget, ok)
            for r, ok in zip(reports, verdicts)]
    formatted = time.perf_counter()
    _emit(args.out, ["name", "parameters", "lhs", "rhs", "margin", "error_budget", "passed"],
          rows, [f"x_grid_size={args.x_grid_size}", *_manifest(reports, verdicts),
                 f"stages sweep_s={swept - start:.3g} format_s={formatted - swept:.3g}"])
    return 0 if all(verdicts) else 1


def cmd_norm_bounds(args: argparse.Namespace) -> int:
    """Each ascent after the first starts from the final `a` of the
    largest section ascended before it, the latest of equal sizes, so a
    ladder that never drops starts each size from the one before it; a line
    after the configuration counts each ascent's half steps, one FFT matvec
    each, in `--ascent-sizes` order. The stages line after it times the
    eps-family rows and the ascents, in seconds."""
    theoretical = norms.theoretical_norm(args.p)
    rows = []
    began = time.perf_counter()
    for eps in args.eps_grid:
        ratio = norms.epsilon_family_ratio(eps, args.p)
        rows.append("EpsilonFamily,%s,eps=%s,%.12g,%.12g,%.12g\n" % (
            args.p, eps, ratio, theoretical, theoretical - ratio))
    spec = kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=args.p)
    swept = time.perf_counter()
    start, largest = None, 0
    half_steps = []
    for N in args.ascent_sizes:
        est = norms.ascent_lower_bound(spec, args.p, N, start=start)
        if N >= largest:
            start, largest = est.a, N
        half_steps.append(len(est.trace))
        rows.append("Ascent,%s,N=%d,%.12g,%.12g,%.12g\n" % (
            args.p, N, est.lower_bound, theoretical, theoretical - est.lower_bound))
    _emit(args.out, ["method", "p", "params", "lower_bound", "theoretical", "gap"], rows,
          [f"p={args.p} eps_grid={_joined(args.eps_grid)} "
           f"ascent_sizes={_joined(args.ascent_sizes)}",
           f"ascent half_steps={_joined(half_steps)}",
           f"stages eps_s={swept - began:.3g} ascent_s={time.perf_counter() - swept:.3g}"])
    return 0


def cmd_kp_apply(args: argparse.Namespace) -> int:
    """The stages line after the configuration times, in seconds, reading
    the input and the rest: the image, its `--image-out` file and the two
    norms."""
    conjugate(args.p)
    start = time.perf_counter()
    f = TaylorFunction(read_sequence(args.input))
    read = time.perf_counter()
    image = hilbert_apply(f, args.n_max)
    if args.image_out:
        write_sequence(args.image_out, image.coeffs)
    rows = ["input_kp_norm,%.15g\n" % kp_norm(f, args.p),
            "image_kp_norm_truncated,%.15g\n" % kp_norm(image, args.p)]
    _emit(args.out, ["quantity", "value"], rows,
          [f"input={args.input} n_max={args.n_max} p={args.p}",
           f"stages read_s={read - start:.3g} apply_s={time.perf_counter() - read:.3g}"])
    return 0


def cmd_beta_table(args: argparse.Namespace) -> int:
    """The stages line after the configuration times the integrals and
    their rows, in seconds."""
    start = time.perf_counter()
    rows = []
    for k in range(1, args.points + 1):
        x = k / (args.points + 1.0)
        res = quadrature.beta_integral(x)
        closed = math.pi / math.sin(math.pi * x)
        rows.append("%.12g,%.15g,%.15g,%.3g\n" % (
            x, res.value, closed, abs(res.value - closed)))
    _emit(args.out, ["x", "beta_integral", "closed_form", "abs_err"], rows,
          [f"points={args.points}", f"stages integrals_s={time.perf_counter() - start:.3g}"])
    return 0


# `positive_int` and `positive_floats` spell the count and eps rules apart from
# `errors._check_count` and `errors._check_positive` on purpose: argparse shows
# only an ArgumentTypeError's text after the flag, and the text quotes the
# flag as typed (`1e-400`, not the 0.0 it parses to), which the library rules
# never see. Sharing them would make the library rules branch on their caller.
def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1, so that no run can
    pass with nothing checked."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for a seed, an integer >= 0, so that a negative one is
    refused with the flag's name rather than by numpy."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_ints(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of `positive_int`s."""
    return tuple(positive_int(v) for v in text.split(","))


def positive_floats(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of eps values, each finite
    and > 0: at eps = 0 the extremal family leaves l^p, and `nan` would fail
    every comparison. The first entry that is not is named."""
    values = tuple(float(v) for v in text.split(","))
    bad = [v for v, x in zip(text.split(","), values) if not (math.isfinite(x) and x > 0.0)]
    if bad:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {bad[0]}")
    return values


def _joined(values) -> str:
    """A list flag as it is written on the command line."""
    return ",".join(str(v) for v in values)


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
    sp.add_argument("--seed", type=nonnegative_int, default=0)
    sp.add_argument("--trials", type=positive_int, default=100)
    sp.add_argument("--max-support", type=positive_int, default=2000)

    sp = command("proof-check", cmd_proof_check, "certify the full inequality proof chain")
    sp.add_argument("--x-grid-size", type=positive_int, default=300)

    sp = command("norm-bounds", cmd_norm_bounds, "lower-bound ladders vs the theoretical norm")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--eps-grid", type=positive_floats, default="0.5,0.1,0.05,0.01")
    sp.add_argument("--ascent-sizes", type=positive_ints, default="16,64,256,1024,4096,16384")

    sp = command("kp-apply", cmd_kp_apply, "apply the matrix to a coefficient file")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--image-out", type=str, default=None)

    sp = command("beta-table", cmd_beta_table, "singular integral vs closed form on a grid")
    sp.add_argument("--points", type=positive_int, default=19)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Exit status: 0 when every check passes, 1 when a
    check fails, 2 for bad input or a crash (argparse's usage errors, and
    any `ValueError`, `OSError`, `OverflowError`, such as a norm that is not
    finite, or `MemoryError` that a command raises, reported on one line by
    `_one_line`)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"hilbert-kp {args.command}: error: {_one_line(str(exc))}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
