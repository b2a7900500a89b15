"""End-to-end acceptance checks.

Each test prints exactly one `ACCEPTANCE <k> ... PASS|FAIL` line (visible with
`pytest -s` or in captured output) and then asserts, so a red run still shows
the full scoreboard.
"""

import math
import sys
import time

import numpy as np
import pytest

from hilbert_kp import (
    KernelSpec,
    TaylorFunction,
    Variant,
    ascent_lower_bound,
    beta_integral,
    bilinear_form,
    check_scalar_constants,
    conjugate,
    default_sweep,
    epsilon_family_ratio,
    kp_norm,
    kp_ratio,
    kp_to_lp_isometry,
    lp_norm,
    theoretical_norm,
)
from hilbert_kp.cli import main as cli_main, random_pair

RATIO_TOL = 1e-12


def report(k: int, label: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {k} ({label}): {'PASS' if ok else 'FAIL'}", file=sys.stderr)


def test_1_inequality_property_suite():
    """1000 seeded random pairs per p, three weighted kernels, support <= 2000:
    every normalized form value stays within 1e-12 of the sharp constant."""
    t0 = time.monotonic()
    worst = -math.inf
    ok = True
    for p in (1.1, 1.5, 2.0, 3.0, 10.0):
        q = conjugate(p).q
        bound = theoretical_norm(p) + RATIO_TOL
        specs = [KernelSpec(Variant.WEIGHTED_MAIN, p=p),
                 KernelSpec(Variant.YANG_SHIFT, p=p),
                 KernelSpec(Variant.YANG_HALF_SHIFT, p=p)]
        rng = np.random.Generator(np.random.Philox(20240501))
        for _ in range(1000):
            a, b = random_pair(rng, p, 2000)
            denom = lp_norm(a, p) * lp_norm(b, q)
            for spec in specs:
                ratio = bilinear_form(spec, a, b) / denom
                worst = max(worst, ratio - (bound - RATIO_TOL))
                if ratio > bound:
                    ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(1, f"inequality suite, worst slack {worst:.3e}, {elapsed:.1f}s", ok)
    assert ok


def test_2_quadrature_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(1, 20):
        x = k / 20.0
        err = abs(beta_integral(x).value - math.pi / math.sin(math.pi * x))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, f"beta integral 19 points, worst err {worst:.2e}, {elapsed:.1f}s", ok)
    assert ok


def test_3_scalar_constants():
    reports = {r.name: r for r in check_scalar_constants()}
    ok = (reports["scalar_alpha0_x_1_3"].margin > 0.18
          and reports["scalar_alpha1_x_1_2"].margin > 0.31
          and reports["scalar_sinc_2pi_5"].margin > 1.0e-3
          and reports["scalar_alphahalf_x_2_5"].margin > 0.09
          and all(r.passed for r in reports.values()))
    report(3, "four scalar constants with quoted margins", ok)
    assert ok


def test_4_proof_chain_sweep():
    t0 = time.monotonic()
    reports = default_sweep(x_points=300)
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.passed]
    ok = not failed and elapsed < 60.0
    report(4, f"full sweep, {len(reports)} checks, {len(failed)} failed, "
              f"{elapsed:.1f}s", ok)
    assert ok, [(r.name, r.parameters) for r in failed][:5]


def test_5_sharpness_approach():
    ratios = [epsilon_family_ratio(eps, 2.0) for eps in (0.5, 0.1, 0.05, 0.01)]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    below = all(r < math.pi for r in ratios)
    close = math.pi - ratios[-1] < 0.1
    ok = increasing and below and close
    report(5, f"epsilon family ratios {['%.5f' % r for r in ratios]}, "
              f"final gap {math.pi - ratios[-1]:.4f}", ok)
    assert ok


def test_6_ascent_oracle_equivalence():
    spec = KernelSpec(Variant.CLASSICAL)
    # independent oracle: symmetric power iteration on the N = 256 section
    idx = np.arange(1, 257, dtype=float)
    K = 1.0 / (idx[:, None] + idx[None, :] - 1.0)
    v = np.full(256, 1.0 / 16.0)
    lam = 0.0
    for _ in range(50000):
        w = K @ v
        new = float(np.linalg.norm(w))
        v = w / new
        if abs(new - lam) <= 1e-15 * new:
            break
        lam = new
    est = ascent_lower_bound(spec, 2.0, 256, 50000)
    d256 = abs(est.lower_bound - lam)
    est2 = ascent_lower_bound(spec, 2.0, 2, 2000)
    d2 = abs(est2.lower_bound - (2.0 / 3.0 + math.sqrt(13.0) / 6.0))
    ok = d256 <= 1e-8 and d2 <= 1e-12
    report(6, f"ascent vs power iteration |diff|={d256:.2e}, "
              f"N=2 closed form |diff|={d2:.2e}", ok)
    assert ok


def test_7_coefficient_space_at_desk_scale():
    ok = True
    worst = -math.inf
    for p in (1.5, 2.0, 3.0):
        cap = theoretical_norm(p) + 1e-9
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(500):
            size = int(rng.integers(1, 200))
            vals = rng.random(size) * np.where(rng.random(size) < 0.8, 1.0, 0.0)
            if not np.any(vals):
                vals[0] = 1.0
            f = TaylorFunction.from_values(tuple(vals))
            r = kp_ratio(f, p, 400)
            worst = max(worst, r - (cap - 1e-9))
            if r > cap:
                ok = False
            rel = abs(lp_norm(kp_to_lp_isometry(f.coeffs, p), p) - kp_norm(f, p)) \
                / kp_norm(f, p)
            if rel > 1e-13:
                ok = False
        gap = theoretical_norm(p) - epsilon_family_ratio(0.01, p)
        if not 0.0 < gap < 0.15:
            ok = False
    report(7, f"coefficient-space ratios, worst slack {worst:.3e}, "
              "sharpness gaps < 0.15", ok)
    assert ok


def test_8_cli_determinism(tmp_path, capsys):
    runs = [
        ["verify-inequality", "--trials", "10", "--seed", "13", "--p", "1.5"],
        ["proof-check"],
        ["proof-check", "--x-grid-size", "4"],
        ["norm-bounds", "--eps-grid", "0.5,0.1", "--ascent-sizes", "8,32"],
        ["beta-table"],
    ]
    ok = True
    for argv in runs:
        bodies = []
        for _ in range(2):
            cli_main(argv)
            out = capsys.readouterr().out
            bodies.append([ln for ln in out.splitlines() if not ln.startswith("#")])
        if bodies[0] != bodies[1]:
            ok = False
    report(8, "repeated CLI runs, identical CSV bodies", ok)
    assert ok
