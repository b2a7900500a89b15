import csv
import io
import math
import re
import resource
from dataclasses import replace

import pytest

import hilbert_kp
from hilbert_kp import Sequence, kernels, lp_norm, proof_checks, quadrature, write_sequence
from hilbert_kp import cli
from hilbert_kp.cli import build_parser, main, random_pair

import numpy as np


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_body(text: str) -> list[str]:
    """CSV lines with every `#` comment line stripped."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def manifest(text: str) -> dict[str, tuple[int, int, float]]:
    """The `# check` lines of a report, in order: family name ->
    (passed, failed, worst_margin_minus_budget)."""
    checks = re.findall(r"^# check (\S+) passed=(\d+) failed=(\d+) "
                        r"worst_margin_minus_budget=(\S+)$", text, re.M)
    return {name: (int(ok), int(bad), float(worst)) for name, ok, bad, worst in checks}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["verify-inequality"])
        assert args.p == 2.0 and args.seed == 0 and args.trials == 100

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [["verify-inequality", "--trials", "0"],
                                      ["verify-inequality", "--trials", "-3"],
                                      ["proof-check", "--x-grid-size", "0"],
                                      ["verify-inequality", "--max-support", "0"],
                                      ["beta-table", "--points", "0"],
                                      ["norm-bounds", "--ascent-sizes", "0"],
                                      ["norm-bounds", "--ascent-sizes", "16,-1"],
                                      ["beta-table", "--points", "-2"]])
    def test_rejects_vacuous_counts(self, argv, capsys):
        """A run that would check nothing is bad input, not a pass."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"must be >= 1, got {argv[-1].split(',')[-1]}")

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_rejects_a_negative_seed(self, seed, capsys):
        """numpy refused it with "expected non-negative integer", which
        named no flag."""
        with pytest.raises(SystemExit) as exc:
            main(["verify-inequality", "--seed", seed, "--trials", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == ("hilbert-kp verify-inequality: error: argument --seed: "
                           f"must be >= 0, got {seed}")

    @pytest.mark.parametrize("argv", [["norm-bounds", "--eps-grid", "-0.5"],
                                      ["norm-bounds", "--eps-grid", "-1"],
                                      ["norm-bounds", "--eps-grid", "0.5,0"],
                                      ["norm-bounds", "--eps-grid", "nan"],
                                      ["norm-bounds", "--eps-grid", "inf"],
                                      ["norm-bounds", "--eps-grid", "0"],
                                      ["norm-bounds", "--eps-grid", "-0.0"],
                                      ["norm-bounds", "--eps-grid", "1e-400"],
                                      ["norm-bounds", "--eps-grid", "0.1,inf"]])
    def test_rejects_tolerances_that_are_not_finite_and_positive(self, argv, capsys):
        """An eps of the extremal family must be finite and > 0; `nan`
        would fail every comparison, and `1e-400` rounds to 0."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == (f"hilbert-kp {argv[0]}: error: argument {argv[-2]}: "
                           f"must be finite and > 0, got {argv[-1].split(',')[-1]}")

    @pytest.mark.parametrize("argv", [["proof-check", "--p", "3"],
                                      ["proof-check", "--tol", "1e-9"],
                                      ["proof-check", "--seed", "1"],
                                      ["norm-bounds", "--tol", "1e-9"],
                                      ["kp-apply", "--input", "f.txt", "--tol", "1e-9"],
                                      ["kp-apply", "--input", "f.txt", "--seed", "1"],
                                      ["beta-table", "--p", "3"],
                                      ["beta-table", "--seed", "1"],
                                      ["beta-table", "--tol", "1e-12"],
                                      ["verify-inequality", "--tol", "1e-12"],
                                      ["norm-bounds", "--seed", "1"],
                                      ["norm-bounds", "--iters", "50"],
                                      ["proof-check", "--scalars-only"]])
    def test_rejects_flags_the_command_does_not_read(self, argv, capsys):
        """The unrecognized flag is argv[-2], or argv[-1] when it takes no
        value."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = argv[-1] if argv[-1].startswith("--") else argv[-2]
        assert err.startswith(f"usage: hilbert-kp {argv[0]} ")
        assert f"hilbert-kp {argv[0]}: error: unrecognized arguments: {flag}" in err


class TestBadInput:
    """Input errors exit 2 with a one-line message naming the subcommand;
    exit 1 is kept for a failed check."""

    @staticmethod
    def write(path, text):
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("argv, needle", [
        (["kp-apply", "--input", "{missing}"], "No such file or directory"),
        (["kp-apply", "--input", "{one_based}"], "Taylor coefficients must be 0-based"),
        (["kp-apply", "--input", "{zero_based}", "--n-max", "-1"], "n_max must be >= 0, got -1"),
        (["kp-apply", "--input", "{no_comma}"], "line 3: cannot parse '7'"),
        (["kp-apply", "--input", "{not_a_number}"], "line 2: cannot parse '0,half'"),
        (["verify-inequality", "--p", "0.5"], "p must lie in (1, inf), got 0.5"),
        (["kp-apply", "--p", "0.5", "--input", "{zero_based}"], "p must lie in (1, inf), got 0.5"),
        (["kp-apply", "--input", "{negative}"], "negative entry -2.0 at index 1"),
        (["norm-bounds", "--p", "2", "--eps-grid", "100000", "--ascent-sizes", "16"],
         "series at x=50000.5, s=1.0, z=1.0 is not finite"),
        (["kp-apply", "--p", "3", "--input", "{huge}"], "overflow in fsum"),
        (["kp-apply", "--p", "3", "--input", "{spike}"], "sum of 1 terms is inf, not finite"),
        (["kp-apply", "--input", "{far}"],
         "far.txt: line 2: index 100000000000000000000 out of range"),
        (["kp-apply", "--input", "{nan}"], "nan.txt: line 3: value nan is not finite"),
        (["kp-apply", "--input", "{inf}"], "inf.txt: line 2: value inf is not finite"),
        (["kp-apply", "--input", "{low}"], "low.txt: line 3: index -9223372036854775809 out of range"),
        (["kp-apply", "--input", "{start_two}"], "start_two.txt: line 2: start_index must be 0 or 1, got 2"),
        (["kp-apply", "--input", "{start_minus}"], "start_minus.txt: line 1: start_index must be 0 or 1, got -1"),
        (["kp-apply", "--input", "{two_starts}"],
         "two_starts.txt: line 4: a second '# start_index=' header, after line 1"),
        (["kp-apply", "--input", "{start_then_bad}"],
         "start_then_bad.txt: line 1: start_index must be 0 or 1, got 2"),
        (["norm-bounds", "--p", "1e16", "--eps-grid", "0.5", "--ascent-sizes", "16"],
         "q must lie in (1, inf), got 1.0"),
    ])
    def test_exit_2_with_one_line(self, argv, needle, tmp_path, capsys):
        files = {
            "missing": str(tmp_path / "missing.txt"),
            "one_based": self.write(tmp_path / "one_based.txt", "# start_index=1\n1,1.0\n"),
            "zero_based": self.write(tmp_path / "zero_based.txt", "# start_index=0\n0,1.0\n"),
            "no_comma": self.write(tmp_path / "no_comma.txt", "# start_index=0\n0,1.0\n7\n"),
            "not_a_number": self.write(tmp_path / "not_a_number.txt", "# start_index=0\n0,half\n"),
            "negative": self.write(tmp_path / "negative.txt", "# start_index=0\n0,1.0\n1,-2.0\n"),
            # past int64: numpy cannot hold the index
            "far": self.write(tmp_path / "far.txt", "# start_index=0\n100000000000000000000,1.0\n"),
            "nan": self.write(tmp_path / "nan.txt", "# start_index=0\n0,1.0\n1,nan\n"),
            "inf": self.write(tmp_path / "inf.txt", "# start_index=0\n0,inf\n"),
            "low": self.write(tmp_path / "low.txt", "# start_index=0\n0,1.0\n-9223372036854775809,0.5\n"),
            # K^3 terms up to 1000 * 1e306: the finite partial sums overflow
            "huge": self.write(tmp_path / "huge.txt", "# start_index=0\n"
                               + "".join(f"{i},1e102\n" for i in range(1000))),
            # a single K^3 term 1e600: the term itself is inf
            "spike": self.write(tmp_path / "spike.txt", "# start_index=0\n0,1e200\n"),
            "start_two": self.write(tmp_path / "start_two.txt", "# K^p input\n# start_index=2\n2,1.0\n"),
            "start_minus": self.write(tmp_path / "start_minus.txt", "# start_index=-1\n"),
            # a later header would shift every entry
            "two_starts": self.write(tmp_path / "two_starts.txt",
                                     "# start_index=1\n1,1.0\n2,0.5\n# start_index=0\n"),
            # the header is refused where it stands, before the bad line after it
            "start_then_bad": self.write(tmp_path / "start_then_bad.txt",
                                         "# start_index=2\n2,1.0\nbad\n"),
        }
        argv = [a.format(**files) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"hilbert-kp {argv[0]}: error: ")
        assert needle in err[0]

    @pytest.mark.parametrize("name, shown", [("a\nb.txt", "a\\nb.txt"), ("a\rb.txt", "a\\rb.txt")])
    def test_a_line_break_in_the_path_stays_on_the_error_line(self, name, shown, tmp_path,
                                                             capsys):
        """The reader's message quotes the path as given; its carriage
        return or line feed is written as `\\r` or `\\n`, so the message
        is still one line."""
        path = self.write(tmp_path / name, "0,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["kp-apply", "--input", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"hilbert-kp kp-apply: error: {tmp_path}/{shown}: "
                       "missing '# start_index=' header"]

    def test_allocation_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        """A `MemoryError` is a crash, not a failed check: exit 2, one line."""
        def refuse(f, n_max):
            raise MemoryError(f"Unable to allocate {8 * (n_max + 1)} bytes")
        monkeypatch.setattr(cli, "hilbert_apply", refuse)
        path = self.write(tmp_path / "one.txt", "# start_index=0\n0,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["kp-apply", "--input", path, "--n-max", "1000000000000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["hilbert-kp kp-apply: error: Unable to allocate 8000000000008 bytes"]

    def test_an_impossible_index_is_refused_at_once(self, tmp_path, capsys):
        """An index of 10^15 asks for a dense block of 8 PB: the read raises
        `MemoryError` before it allocates anything, so kp-apply exits 2 with
        one line instead of filling the block index by index."""
        path = self.write(tmp_path / "far.txt", "# start_index=0\n1000000000000000,1.0\n")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB
        with pytest.raises(SystemExit) as exc:
            main(["kp-apply", "--input", path])
        assert exc.value.code == 2
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("hilbert-kp kp-apply: error: Unable to allocate ")


class TestRandomPair:
    def test_shapes_and_signs(self):
        rng = np.random.Generator(np.random.Philox(5))
        a, b = random_pair(rng, 3.0, 500)
        assert a.start_index == 1 and b.start_index == 1
        assert 1 <= len(a) <= 500 and 1 <= len(b) <= 500
        assert all(v >= 0.0 for v in a.values)
        assert a.values.any() and b.values.any()

    def test_seeded_determinism(self):
        pairs = []
        for _ in range(2):
            rng = np.random.Generator(np.random.Philox(11))
            pairs.append(random_pair(rng, 2.0, 200))
        assert pairs[0] == pairs[1]


class TestVerifyInequality:
    def test_exit_zero_and_all_ok(self, capsys):
        code, out = run_cli(["verify-inequality", "--trials", "12", "--seed", "4"],
                            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert len(rows) == 12 * 3
        assert {r["kernel"] for r in rows} == {"WeightedMain", "YangShift",
                                               "YangHalfShift"}
        for r in rows:
            assert r["ok"] == "1"
            assert float(r["ratio"]) <= float(r["bound"]) + 1e-12

    def test_reproducible_body(self, capsys):
        argv = ["verify-inequality", "--trials", "6", "--seed", "9", "--p", "3.0"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert csv_body(out1) == csv_body(out2)
        assert out1.splitlines()[0].startswith("# generated ")

    def test_summary_counts_the_fft_forms(self, capsys):
        """Supports up to 20000 cross the form's FFT crossover; the summary
        line counts those forms, and each kernel's manifest line bounds its
        rows' distance below the float bound."""
        code, out = run_cli(["verify-inequality", "--p", "6", "--max-support", "20000",
                             "--trials", "10"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        summary = dict(field.split("=") for field in out.splitlines()[2][2:].split())
        assert int(summary["forms"]) == len(rows) == 30
        fft = sum(int(r["support_a"]) * int(r["support_b"]) >= kernels._FFT_CROSSOVER
                  for r in rows)
        assert int(summary["fft_forms"]) == fft > 0
        assert 0.0 < float(summary["worst_budget"]) < 1e-10
        checks = manifest(out)
        assert list(checks) == ["WeightedMain", "YangShift", "YangHalfShift"]
        for name, (passed, failed, worst) in checks.items():
            assert (passed, failed) == (10, 0)
            # the line rounds to 6 digits, and rounding keeps the order
            assert 0.0 < worst <= float("%.6g" % min(float(r["bound"]) - float(r["ratio"])
                                                     for r in rows if r["kernel"] == name))

    def test_budget_enters_the_verdict(self, capsys, monkeypatch):
        argv = ["verify-inequality", "--trials", "3"]
        _, plain = run_cli(argv, capsys)
        form = kernels._form
        monkeypatch.setattr(kernels, "_form", lambda spec, a, b: (form(spec, a, b)[0], 1e6))
        code, out = run_cli(argv, capsys)
        assert code == 1
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert [r["ok"] for r in rows] == ["0"] * 9
        assert [c[:2] for c in manifest(out).values()] == [(0, 3)] * 3
        plain_rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(plain)))))
        assert [r["ratio"] for r in rows] == [r["ratio"] for r in plain_rows]


    def test_fails_above_the_certified_value(self, capsys, monkeypatch):
        """At p = 2 the certified value of pi/sin(pi/p), beta_integral(1/2)
        less its estimate, lies 9.3e-14 below the float pi. A ratio 2e-14
        below pi is within any tolerance above the float bound, but above
        the certified value, so its row fails."""
        certified = quadrature.beta_integral(0.5)
        target = math.pi - 2e-14
        assert certified.value - certified.error_estimate < target
        form = kernels._form

        def patched(spec, a, b):
            if spec.variant is not kernels.Variant.YANG_SHIFT:
                return form(spec, a, b)
            return target * lp_norm(a, 2.0) * lp_norm(b, 2.0), 0.0

        monkeypatch.setattr(kernels, "_form", patched)
        code, out = run_cli(["verify-inequality", "--trials", "2"], capsys)
        assert code == 1
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert [r["ok"] for r in rows] == ["1", "0", "1"] * 2
        assert float(rows[1]["ratio"]) < float(rows[1]["bound"])
        checks = manifest(out)
        assert [c[:2] for c in checks.values()] == [(2, 0), (0, 2), (2, 0)]
        assert checks["YangShift"][2] < 0.0 < checks["WeightedMain"][2]


class TestConfigurationLine:
    """Every report records the flags it ran with on the line after the
    timestamp."""

    @pytest.mark.parametrize("argv, config", [
        (["beta-table", "--points", "2"], "# points=2"),
        (["beta-table", "--points", "1"], "# points=1"),
        (["verify-inequality", "--trials", "1", "--p", "3"],
         "# p=3.0 seed=0 trials=1 max_support=2000"),
        (["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", "4,8"],
         "# p=2.0 eps_grid=0.5 ascent_sizes=4,8"),
    ])
    def test_header_records_the_effective_flags(self, argv, config, capsys):
        """verify-inequality adds one summary line after its configuration
        and one manifest line per kernel, and norm-bounds one line of
        half-step counts; each ends with its stages line."""
        _, out = run_cli(argv, capsys)
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert comments[0].startswith("# generated ")
        assert comments[1] == config
        if argv[0] == "verify-inequality":
            assert len(comments) == 7
            assert re.fullmatch(r"# forms=3 fft_forms=0 worst_budget=\S+", comments[2])
            for line, name in zip(comments[3:], ["WeightedMain", "YangShift", "YangHalfShift"]):
                assert re.fullmatch(rf"# check {name} passed=1 failed=0 "
                                    r"worst_margin_minus_budget=[0-9]\S*", line)
            stages = r"# stages bound_s=(\S+) forms_s=(\S+)"
        elif argv[0] == "norm-bounds":
            assert len(comments) == 4
            assert re.fullmatch(r"# ascent half_steps=\d+,\d+", comments[2])
            stages = r"# stages eps_s=(\S+) ascent_s=(\S+)"
        else:
            assert len(comments) == 3
            stages = r"# stages integrals_s=(\S+)"
        match = re.fullmatch(stages, comments[-1])
        assert match and all(float(t) >= 0.0 for t in match.groups()), comments[-1]

    def test_kp_apply_records_n_max_and_p(self, tmp_path, capsys):
        src = tmp_path / "f.txt"
        write_sequence(src, Sequence(0, (1.0, 0.5)))
        _, out = run_cli(["kp-apply", "--input", str(src), "--n-max", "5", "--p", "3"],
                         capsys)
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert comments[1] == f"# input={src} n_max=5 p=3.0"
        match = re.fullmatch(r"# stages read_s=(\S+) apply_s=(\S+)", comments[2])
        assert match and all(float(t) >= 0.0 for t in match.groups()), comments[2]
        assert len(comments) == 3
        assert [row.split(",")[0] for row in csv_body(out)] == [
            "quantity", "input_kp_norm", "image_kp_norm_truncated"]

    def test_kp_apply_reports_tiny_norms(self, tmp_path, capsys):
        """A coefficient whose cube underflows is its own K^3 norm, and the
        image's norm is not 0."""
        src = tmp_path / "tiny.txt"
        src.write_text("# start_index=0\n0,1e-300\n")
        code, out = run_cli(["kp-apply", "--input", str(src), "--p", "3"], capsys)
        rows = dict(row.split(",") for row in csv_body(out)[1:])
        assert code == 0 and rows["input_kp_norm"] == "1e-300"
        assert 1e-300 < float(rows["image_kp_norm_truncated"]) < 2e-300

    @pytest.mark.parametrize("argv", [
        ["proof-check", "--x-grid-size", "4"],
        ["verify-inequality", "--trials", "1"],
        ["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", "4"],
        ["kp-apply", "--input", "{input}", "--n-max", "3"],
        ["beta-table", "--points", "1"],
    ])
    def test_first_line_names_the_version(self, argv, tmp_path, capsys):
        """Every report's first line is the timestamp, then the package
        name and version that wrote it."""
        src = tmp_path / "f.txt"
        write_sequence(src, Sequence(0, (1.0, 0.5)))
        _, out = run_cli([a.format(input=src) for a in argv], capsys)
        first = out.splitlines()[0]
        assert re.fullmatch(r"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d hilbert-kp "
                            + re.escape(hilbert_kp.__version__), first), first

    def test_defaults_are_recorded_too(self, capsys):
        _, out = run_cli(["norm-bounds", "--eps-grid", "0.5"], capsys)
        assert out.splitlines()[1] == ("# p=2.0 eps_grid=0.5 "
                                       "ascent_sizes=16,64,256,1024,4096,16384")


class TestProofCheck:
    @pytest.mark.parametrize("argv, config", [
        (["proof-check"], "# x_grid_size=300"),
        (["proof-check", "--x-grid-size", "6"], "# x_grid_size=6"),
    ])
    def test_header_records_the_configuration_used(self, argv, config, capsys):
        """The configuration line follows the timestamp; only the manifest's
        `# check` lines and, last, the stages line come after it."""
        _, out = run_cli(argv, capsys)
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert comments[1] == config
        assert all(line.startswith("# check ") for line in comments[2:-1])
        assert comments[-1].startswith("# stages ")

    def test_stages_line_times_the_sweep_and_the_formatting(self, capsys):
        _, out = run_cli(["proof-check", "--x-grid-size", "4"], capsys)
        comments = [line for line in out.splitlines() if line.startswith("#")]
        match = re.fullmatch(r"# stages sweep_s=(\S+) format_s=(\S+)", comments[-1])
        assert match
        assert all(float(t) >= 0.0 for t in match.groups())

    def test_manifest_summarises_each_family(self, capsys):
        code, out = run_cli(["proof-check", "--x-grid-size", "6"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        families = {}
        for r in rows:
            families.setdefault(r["name"], []).append(r)
        manifest = {}
        for line in out.splitlines():
            if line.startswith("# check "):
                name, *fields = line[len("# check "):].split()
                manifest[name] = dict(field.split("=") for field in fields)
        assert list(manifest) == list(families)
        for name, group in families.items():
            entry = manifest[name]
            assert int(entry["passed"]) == len(group) and entry["failed"] == "0"
            worst = min(float(r["margin"]) - float(r["error_budget"]) for r in group)
            assert float(entry["worst_margin_minus_budget"]) == pytest.approx(worst, rel=1e-2)
        for name in ("ineq_I", "ineq_II", "monotone_in_x"):
            assert 0 < int(manifest[name]["max_series_terms"]) < 100
        assert "max_series_terms" not in manifest["logconvexity_f"]

    def test_manifest_counts_a_failed_check(self, capsys, monkeypatch):
        failed = proof_checks.CheckReport("ineq_I", "x=0.1,alpha=0.0", 1.0, 1.5, 1.0, terms=7)
        monkeypatch.setattr(proof_checks, "default_sweep",
                            lambda x_points: [failed, replace(failed, error_budget=0.0)])
        code, out = run_cli(["proof-check"], capsys)
        assert code == 1
        assert out.splitlines()[2] == ("# check ineq_I passed=1 failed=1 "
                                       "worst_margin_minus_budget=-0.5 max_series_terms=7")

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_manifest_reports_a_nan_margin_in_any_order(self, nan_first, capsys,
                                                         monkeypatch):
        """`min` would keep 0.5 when the NaN comes second; the worst margin
        less budget is `nan` whichever report comes first."""
        ok = proof_checks.CheckReport("ineq_I", "x=0.1,alpha=0.0", 1.0, 2.0, 0.5)
        nan = replace(ok, lhs=math.nan)
        sweep = [nan, ok] if nan_first else [ok, nan]
        monkeypatch.setattr(proof_checks, "default_sweep", lambda x_points: sweep)
        code, out = run_cli(["proof-check"], capsys)
        assert code == 1
        assert out.splitlines()[2] == ("# check ineq_I passed=1 failed=1 "
                                       "worst_margin_minus_budget=nan")

    def test_manifest_leaves_the_body_alone(self, capsys):
        """Body rows are the sweep's reports, exactly as formatted without a
        manifest."""
        _, out = run_cli(["proof-check", "--x-grid-size", "4"], capsys)
        expected = [",".join(["name", "parameters", "lhs", "rhs", "margin", "error_budget",
                              "passed"])]
        for r in proof_checks.default_sweep(x_points=4):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="").writerow(
                [r.name, r.parameters, f"{r.lhs:.15g}", f"{r.rhs:.15g}",
                 f"{r.margin:.15g}", f"{r.error_budget:.3g}", int(r.passed)])
            expected.append(buf.getvalue())
        assert csv_body(out) == expected

    def test_small_sweep(self, capsys):
        code, out = run_cli(["proof-check", "--x-grid-size", "6"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert all(r["passed"] == "1" for r in rows)


class TestCsvBody:
    """Body lines are formatted by hand; csv's reader and writer are the
    oracle for their quoting."""

    @pytest.mark.parametrize("field", ["", "plain", "a,b", 'say "x"', "a\nb", "a\rb",
                                       " lead", "x=0.1,alpha=0.5"])
    def test_csv_field_quotes_as_csv_writer_does(self, field):
        """A row of `_csv_field`s equals csv.writer's with a newline line
        terminator. Python 3.11's writer leaves a lone carriage return bare
        under that terminator, and its reader then splits the row there, so
        such a field is compared with the writer under CRLF, which quotes it."""
        row = [field, "1.5", field]
        terminator = "\r\n" if "\r" in field else "\n"
        buf = io.StringIO()
        csv.writer(buf, lineterminator=terminator).writerow(row)
        line = ",".join(cli._csv_field(f) for f in row) + "\n"
        assert line == buf.getvalue()[:-len(terminator)] + "\n"
        assert list(csv.reader(io.StringIO(line, newline=""))) == [row]

    @pytest.mark.parametrize("argv", [
        ["proof-check", "--x-grid-size", "4"],
        ["verify-inequality", "--trials", "2"],
        ["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", "4,8"],
        ["kp-apply", "--input", "{input}", "--n-max", "3"],
        ["beta-table", "--points", "3"],
    ])
    def test_body_survives_a_csv_round_trip(self, argv, tmp_path, capsys):
        """csv.reader then csv.writer give the body back byte for byte, so
        every command quotes minimally."""
        src = tmp_path / "f.txt"
        write_sequence(src, Sequence(0, (1.0, 0.5)))
        _, out = run_cli([a.format(input=src) for a in argv], capsys)
        body = "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("#"))
        rows = list(csv.reader(io.StringIO(body, newline="")))
        assert len(rows) > 1
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == body


class TestNormBounds:
    def test_ladder(self, capsys):
        code, out = run_cli(["norm-bounds", "--eps-grid", "0.5,0.1",
                             "--ascent-sizes", "4,16"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert [r["method"] for r in rows] == ["EpsilonFamily"] * 2 + ["Ascent"] * 2
        for r in rows:
            assert float(r["lower_bound"]) < float(r["theoretical"])
            assert float(r["gap"]) > 0.0

    def test_reproducible_body(self, capsys):
        argv = ["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", "8"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert csv_body(out1) == csv_body(out2)

    @staticmethod
    def ascents(monkeypatch, capsys, sizes):
        """(N, start, estimate) of each ascent of a norm-bounds run over
        `sizes`, and the run's output."""
        ascent = cli.norms.ascent_lower_bound
        calls = []

        def recording(spec, p, N, *, start):
            est = ascent(spec, p, N, start=start)
            calls.append((N, start, est))
            return est

        monkeypatch.setattr(cli.norms, "ascent_lower_bound", recording)
        _, out = run_cli(["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", sizes], capsys)
        return calls, out

    def test_each_size_warm_starts_the_next(self, monkeypatch, capsys):
        """In a ladder that never drops, every ascent after the first starts
        from the final `a` of the one before it, in flag order, and the
        header counts each one's half steps in that order."""
        calls, out = self.ascents(monkeypatch, capsys, "16,16,17,64")
        assert calls[0][1] is None
        assert all(start is prev.a for (_, start, _), (_, _, prev) in zip(calls[1:], calls))
        counts = ",".join(str(len(est.trace)) for _, _, est in calls)
        assert f"# ascent half_steps={counts}" in out.splitlines()

    def test_a_drop_starts_from_the_largest_section(self, monkeypatch, capsys):
        """After a drop, every size starts from the maximizer of the largest
        section so far, not from the smaller one just before it."""
        calls, _ = self.ascents(monkeypatch, capsys, "64,16,16,17")
        assert [N for N, _, _ in calls] == [64, 16, 16, 17]
        assert all(start is calls[0][2].a for _, start, _ in calls[1:])


class TestKpApply:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "f.txt"
        write_sequence(src, Sequence(0, (1.0, 0.5)))
        img = tmp_path / "img.txt"
        code, out = run_cli(["kp-apply", "--input", str(src), "--n-max", "3",
                             "--image-out", str(img)], capsys)
        assert code == 0
        rows = dict(csv.reader(io.StringIO("\n".join(csv_body(out)[1:]))))
        assert float(rows["input_kp_norm"]) == pytest.approx(
            math.sqrt(1.0 + 0.25), rel=1e-12)
        from hilbert_kp import read_sequence
        image = read_sequence(img)
        assert image.start_index == 0
        assert image.values[0] == pytest.approx(1.0 + 0.5 / 2.0, rel=1e-14)

    @pytest.mark.parametrize("name, shown", [("a\nb.txt", "a\\nb.txt"), ("a\rb.txt", "a\\rb.txt")])
    def test_a_line_break_in_the_input_path_stays_on_its_comment_line(self, name, shown,
                                                                     tmp_path, capsys):
        """`# input=` records the path as given, with a carriage return or
        line feed written as `\\r` or `\\n`: the report still reads back as
        one CSV table with the header `quantity,value`."""
        src = tmp_path / name
        write_sequence(src, Sequence(0, (1.0,)))
        code, out = run_cli(["kp-apply", "--input", str(src), "--n-max", "3"], capsys)
        assert code == 0
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert comments[1] == f"# input={tmp_path}/{shown} n_max=3 p=2.0"
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert [row["quantity"] for row in rows] == ["input_kp_norm", "image_kp_norm_truncated"]

    def test_a_backslash_and_a_line_break_give_two_input_lines(self, tmp_path, capsys):
        """`a\\nb.txt` (a backslash and n) and `a`, a line feed, `b.txt` are
        two files, so they give two `# input=` lines, and each line reads
        back to its path: the backslash is escaped first."""
        def unescape(text):
            return re.sub(r"\\(.)", lambda m: {"\\": "\\", "r": "\r", "n": "\n"}[m[1]], text)

        paths = [tmp_path / "a\\nb.txt", tmp_path / "a\nb.txt"]
        lines = []
        for src in paths:
            write_sequence(src, Sequence(0, (1.0,)))
            code, out = run_cli(["kp-apply", "--input", str(src), "--n-max", "3"], capsys)
            assert code == 0
            lines.append(out.splitlines()[1])
        assert lines[0] != lines[1]
        for src, line in zip(paths, lines):
            match = re.fullmatch(r"# input=(.*) n_max=3 p=2\.0", line)
            assert match and unescape(match[1]) == str(src), line

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "f.txt"
        write_sequence(src, Sequence(0, (1.0,)))
        dest = tmp_path / "report.csv"
        code, _ = run_cli(["kp-apply", "--input", str(src), "--out", str(dest)],
                          capsys)
        assert code == 0
        text = dest.read_text()
        assert text.splitlines()[0].startswith("# generated ")
        assert "input_kp_norm" in text


class TestBetaTable:
    def test_default_19_points(self, capsys):
        code, out = run_cli(["beta-table"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert len(rows) == 19
        for r in rows:
            assert float(r["abs_err"]) <= 1e-10
            x = float(r["x"])
            assert float(r["closed_form"]) == pytest.approx(
                math.pi / math.sin(math.pi * x), rel=1e-10)
