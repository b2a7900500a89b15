import csv
import io
import math
import os

import pytest

from hilbert_kp import Sequence, write_sequence
from hilbert_kp.cli import build_parser, main, random_pair, worker_count

import numpy as np


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_body(text: str) -> list[str]:
    """CSV lines with every `#` comment line stripped."""
    return [line for line in text.splitlines() if not line.startswith("#")]


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
                                      ["proof-check", "--x-grid-size", "0"]])
    def test_rejects_vacuous_counts(self, argv, capsys):
        """A run that would check nothing is bad input, not a pass."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"must be >= 1, got {argv[-1]}")


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HF_THREADS", "3")
        assert worker_count() == 3

    def test_auto(self, monkeypatch):
        monkeypatch.delenv("HF_THREADS", raising=False)
        assert worker_count() >= 1
        monkeypatch.setenv("HF_THREADS", "0")
        assert worker_count() >= 1

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("HF_THREADS", "lots")
        assert worker_count() >= 1


class TestRandomPair:
    def test_shapes_and_signs(self):
        rng = np.random.Generator(np.random.Philox(5))
        a, b = random_pair(rng, 3.0, 500)
        assert a.start_index == 1 and b.start_index == 1
        assert 1 <= len(a) <= 500 and 1 <= len(b) <= 500
        assert all(v >= 0.0 for v in a.values)
        assert not a.is_zero() and not b.is_zero()

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


class TestProofCheck:
    def test_scalars_only(self, capsys):
        code, out = run_cli(["proof-check", "--scalars-only"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert len(rows) == 4
        assert all(r["passed"] == "1" for r in rows)

    def test_small_sweep(self, capsys, monkeypatch):
        monkeypatch.setenv("HF_THREADS", "2")
        code, out = run_cli(["proof-check", "--x-grid-size", "6"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert all(r["passed"] == "1" for r in rows)

    def test_serial_parallel_identical_body(self, capsys, monkeypatch):
        monkeypatch.setenv("HF_THREADS", "1")
        _, serial = run_cli(["proof-check", "--x-grid-size", "5"], capsys)
        monkeypatch.setenv("HF_THREADS", "4")
        _, parallel = run_cli(["proof-check", "--x-grid-size", "5"], capsys)
        assert csv_body(serial) == csv_body(parallel)


class TestNormBounds:
    def test_ladder(self, capsys):
        code, out = run_cli(["norm-bounds", "--eps-grid", "0.5,0.1",
                             "--ascent-sizes", "4,16", "--iters", "300"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_body(out)))))
        assert [r["method"] for r in rows] == ["EpsilonFamily"] * 2 + ["Ascent"] * 2
        for r in rows:
            assert float(r["lower_bound"]) < float(r["theoretical"])
            assert float(r["gap"]) > 0.0

    def test_reproducible_body(self, capsys):
        argv = ["norm-bounds", "--eps-grid", "0.5", "--ascent-sizes", "8",
                "--iters", "100", "--seed", "2"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert csv_body(out1) == csv_body(out2)


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
