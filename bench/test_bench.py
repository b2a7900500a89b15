"""Tests of the benchmark's own machinery: span arithmetic, transparent
wrappers, and the correctness gates. Run with `python -m pytest bench`."""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

import run
import tracing
from workloads import NormBracket, PairVerify, ProofSweep, RowBound, read_csv_body
from hilbert_kp import cli, kernels, kp, norms, proof_checks, quadrature, sequences
from hilbert_kp.quadrature import QuadratureResult

Span = tracing.Span


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("bench", "job", -1, 0, 100),
        Span("cli", "cli.main", 0, 10, 90),
        Span("proof_checks", "proof_checks.check_ineq_I", 1, 20, 60),
        Span("quadrature", "quadrature.adaptive_integrate", 2, 25, 55),
        Span("quadrature", "quadrature.adaptive_integrate", 2, 56, 58),
        Span("cli", "cli._emit", 1, 70, 85),
    ]
    assert tracing.self_times(spans) == [20, 25, 8, 30, 2, 15]


def test_layer_metrics_from_nested_spans():
    spans = [
        Span("bench", "job", -1, 0, 2_000_000_000),
        Span("proof_checks", "proof_checks.default_sweep", 0, 0, 1_000_000_000,
             {"proof_checks.checks": 2, "proof_checks.failed": 1}),
        Span("proof_checks", "proof_checks.check_ineq_I", 1, 0, 500_000_000,
             {"proof_checks.checks": 1, "proof_checks.failed": 1}),
        Span("quadrature", "quadrature.F_of_y", 2, 0, 400_000_000),
        Span("quadrature", "quadrature.adaptive_integrate", 3, 0, 100_000_000,
             {"quadrature.panels": 7}),
        Span("quadrature", "quadrature.adaptive_integrate", 3, 100_000_000, 300_000_000,
             {"quadrature.panels": 5}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["quadrature.calls"] == 1              # F_of_y enters; its children do not
    assert m["quadrature.panels"] == 12            # panels count wherever GK runs
    assert m["quadrature.self_s"] == pytest.approx(0.4)
    assert m["quadrature.panels_per_s"] == pytest.approx(30.0)
    assert m["proof_checks.checks"] == 2           # the sweep's reports, once
    assert m["proof_checks.failed"] == 1
    assert m["proof_checks.self_s"] == pytest.approx(0.6)
    assert m["kernels.form.calls"] == 0 and m["kernels.entries_per_s"] == 0.0


def _battery(tmp_path):
    """Results of one call through each layer, as their exact reprs."""
    p = 1.5
    a = sequences.Sequence(1, [1.0, 0.0, 2.5, 0.3])
    b = sequences.Sequence(1, [0.5, 1.5, 0.0, 0.0, 4.0])
    spec = kernels.KernelSpec(kernels.Variant.WEIGHTED_MAIN, p=p)
    out = [kernels.bilinear_form(kernels.KernelSpec(v, p=p), a, b)
           for v in PairVerify.VARIANTS]
    out += [
        sequences.lp_norm(a, p),
        kernels.apply_operator(spec, a, 6),
        quadrature.beta_integral(0.3),
        norms.ascent_lower_bound(spec, p, 64, 50),
        norms.epsilon_family_ratio(0.5, p),
        kp.hilbert_apply(kp.TaylorFunction.from_values([1.0, 0.5, 0.25]), 10),
        kernels.row_sum_alpha(3, 2.0, proof_checks.alpha_schedule(0.5), tol=1e-6),
        proof_checks.default_sweep(x_points=5),
    ]
    path = tmp_path / "nb.csv"
    out.append(cli.main(["norm-bounds", "--p", "3", "--ascent-sizes", "16",
                         "--eps-grid", "0.5", "--out", str(path)]))
    out.append(read_csv_body(path))
    return repr(out)


def _bindings():
    mods = [m for name, m in list(sys.modules.items())
            if name == "hilbert_kp" or name.startswith("hilbert_kp.")]
    seen = {}
    for mod in mods:
        for name, value in vars(mod).items():
            seen[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(mod.__name__, name, attr)] = member
    return seen


def test_wrappers_leave_results_bit_identical_and_are_restored(tmp_path):
    before = _bindings()
    plain = _battery(tmp_path)
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        assert norms.kernel_matrix is kernels.kernel_matrix
        assert hasattr(norms.kernel_matrix, "__wrapped__")
        traced = _battery(tmp_path)
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layers = {s.layer for s in recorder.spans}
    assert {"sequences", "kernels.form", "kernels.row_sum", "kp", "quadrature",
            "proof_checks", "norms.ascent", "norms.eps_family", "cli"} <= layers
    m = tracing.layer_metrics(recorder.spans)
    assert m["norms.ascent.calls"] == 2 and m["norms.ascent.peak_mb"] > 0
    assert m["cli.rows"] == 2 and m["proof_checks.checks"] == 2 * 5 + 63


def test_proof_sweep_gate_rejects_a_failed_or_missing_row(tmp_path, monkeypatch):
    monkeypatch.setenv("HF_THREADS", "0")      # restored after the test
    w = ProofSweep(0, str(tmp_path))
    header = "name,parameters,lhs,rhs,margin,error_budget,passed\n"
    with open(w.out, "w") as fh:
        fh.write("# generated now\n" + header)
        fh.writelines(f"ineq_I,x={k},0,1,1,0,1\n" for k in range(w.expected_rows))
    assert w.check(None, 0).failed == 0
    with open(w.out, "w") as fh:
        fh.write(header + "ineq_I,x=1,0,1,1,0,0\n")
        fh.writelines(f"ineq_I,x={k},0,1,1,0,1\n" for k in range(w.expected_rows - 2))
    v = w.check(None, 0)
    assert v.failed == 2 and v.attempted == w.expected_rows + 1
    assert w.check(None, 1).failed == 3


def test_pair_verify_gate_rejects_excess_and_oracle_mismatch(tmp_path):
    w = PairVerify(7, str(tmp_path))
    pairs = w.prepare(0)
    small = [k for k, pair in enumerate(pairs) if pair.oracle]
    assert len(small) >= 5
    good = [list(pair.oracle) if pair.oracle else [1.0, 1.0, 1.0] for pair in pairs]
    assert w.check(pairs, good).failed == 0
    bad = [list(r) for r in good]
    bad[-1][0] = math.pi / math.sin(math.pi / pairs[-1].p) * (1 + 1e-9)
    bad[small[0]][1] *= 1 + 1e-10
    bad[small[1]] = ValueError("raised")
    assert w.check(pairs, bad).failed == 3


def test_pair_verify_oracle_agrees_with_the_library(tmp_path):
    w = PairVerify(3, str(tmp_path))
    pairs = [pair for pair in w.prepare(0) if pair.oracle]
    assert w.check(pairs, w.run(pairs)).failed == 0


def test_norm_bracket_gate_passes_real_output_and_rejects_tampering(tmp_path):
    w = NormBracket(0, str(tmp_path))
    w.prepare(0)
    rcs = w.run(None)
    assert w.check(None, rcs).failed == 0
    # eps = 0.5 now reports the eps = 0.01 ratio: the ladder no longer rises
    with open(w.out("2")) as fh:
        lines = fh.read().splitlines()
    e05 = next(i for i, line in enumerate(lines) if "eps=0.5," in line)
    e001 = next(i for i, line in enumerate(lines) if "eps=0.01," in line)
    lines[e05] = ",".join(lines[e05].split(",")[:3] + lines[e001].split(",")[3:])
    with open(w.out("2"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert w.check(None, rcs).failed == 1
    with open(w.out("kp_apply"), "w") as fh:
        fh.write("quantity,value\ninput_kp_norm,1.0\nimage_kp_norm_truncated,4.0\n")
    assert w.check(None, rcs).failed == 4


def test_row_bound_gate_rejects_a_sum_past_the_constant(tmp_path):
    w = RowBound(0, str(tmp_path))
    fine = [QuadratureResult(1.0, 1e-9, 2) for _ in w.PS for _ in w.MS]
    assert w.check(None, fine).failed == 0
    fine[3] = QuadratureResult(math.pi, 1e-9, 2)     # p = 2: equals the bound
    fine[4] = ValueError("raised")
    assert w.check(None, fine).failed == 2


def test_wrong_library_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(kernels, "row_sum_alpha",
                        lambda m, p, alpha, tol: QuadratureResult(10.0, 0.0, 1))
    assert run.main(["--workload", "row_bound", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert spec["paths"] == ["bench"] and os.path.isfile(run.BENCH / "run.py")
