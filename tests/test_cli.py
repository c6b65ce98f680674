"""CLI subcommands: artifacts, determinism, exit codes, file parsing."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ramsmooth
from ramsmooth import GrowthCertificate, RangeQFunction, cli, functions, \
    parse_function_file
from ramsmooth.cli import main


def run(args, tmp_path):
    return main([*args, "--out", str(tmp_path)])


class TestFunctionFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "table.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_delta_file(self, tmp_path):
        path = self.write(tmp_path, "#mode=eratosthenes\n1\t1/1\n")
        spec = parse_function_file(path)
        assert spec.evaluate(7) == 1
        assert spec.transform_support == 1

    def test_negative_rationals(self, tmp_path):
        path = self.write(tmp_path,
                          "#mode=direct #C=3 #eps=0\n1\t1/2\n2\t0/1\n3\t-2/5\n")
        spec = parse_function_file(path)
        assert spec.evaluate(3) == Fraction(-2, 5)

    def test_duplicate_index_rejected(self, tmp_path):
        path = self.write(tmp_path, "#mode=direct\n1\t1/1\n1\t2/1\n")
        with pytest.raises(ValueError):
            parse_function_file(path)

    def test_malformed_rational_rejected(self, tmp_path):
        for value in ("1.5", "1/0"):
            path = self.write(tmp_path, f"#mode=direct\n1\t{value}\n")
            with pytest.raises(ValueError):
                parse_function_file(path)

    def test_missing_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "1\t1/1\n")
        with pytest.raises(ValueError):
            parse_function_file(path)

    def test_eratosthenes_certificate_audited(self, tmp_path, capsys):
        # the same false claim as in direct mode: F(1) = 1 > 1/10
        path = self.write(tmp_path,
                          "#mode=eratosthenes #C=1/10 #eps=0\n1\t1/1\n")
        assert run(["coeffs", "--function", f"@{path}", "--V", "3",
                    "--ell-max", "4"], tmp_path) == 3
        assert "F(1) = 1 violates" in capsys.readouterr().err

    def test_eratosthenes_certificate_declared_or_derived(self, tmp_path):
        # the README example keeps its declared certificate; without one,
        # the mass 1 + 2/5 of the table gives C = 7/5 at eps = 0
        body = "1\t1/1\n3\t-2/5\n"
        path = self.write(tmp_path, "#mode=eratosthenes #C=3/2 #eps=1/2\n"
                          + body)
        assert parse_function_file(path).direct_certificate == \
            GrowthCertificate(Fraction(3, 2), Fraction(1, 2))
        path = self.write(tmp_path, "#mode=eratosthenes\n" + body)
        assert parse_function_file(path).direct_certificate == \
            GrowthCertificate(Fraction(7, 5), 0)

    def test_exponent_denominator_bounded(self, tmp_path, capsys):
        # eps = 1/97 runs; a denominator above the bound exits 3 on one line
        body = "1\t1/1\n3\t-2/5\n"
        for eps, code in (("1/97", 0), ("1/997", 3)):
            path = self.write(tmp_path, f"#mode=eratosthenes #C=3 #eps={eps}\n"
                              + body)
            assert run(["coeffs", "--function", f"@{path}", "--V", "7",
                        "--ell-max", "12"], tmp_path) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1/997" in err and "round it up" in err

    def test_zero_table_under_huge_bound_denominator(self, tmp_path):
        # C = 2**-63 admits an all-zero table on either side
        for mode in ("direct", "eratosthenes"):
            path = self.write(tmp_path, f"#mode={mode} #C=1/{2 ** 63} "
                              "#eps=0\n1\t0\n")
            assert parse_function_file(path).direct_certificate.bound == \
                Fraction(1, 2 ** 63)

    def test_failed_audit_rejected(self, tmp_path):
        # claims |F(n)| <= n^0 / 10 but stores F(1) = 1
        path = self.write(tmp_path, "#mode=direct #C=1/10 #eps=0\n1\t1/1\n")
        with pytest.raises(ValueError):
            parse_function_file(path)


class TestCounterexampleCommand:
    def test_paper_values(self, tmp_path):
        code = run(["counterexample", "--N", "10", "--Q", "5",
                    "--n0", "2", "--q0", "3"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "reef_report.json").read_text())
        assert report["lhs"] == "2/1"
        assert report["rhs"] == "1/2"
        assert report["defect"] == "3/2"

    def test_bad_alignment_is_usage_error(self, tmp_path):
        code = run(["counterexample", "--N", "10", "--Q", "5",
                    "--n0", "3", "--q0", "3"], tmp_path)
        assert code == 3


class TestOrthogonalityCommand:
    def test_diagonal_matrix(self, tmp_path):
        code = run(["orthogonality", "--Q", "3", "--max", "30"], tmp_path)
        assert code == 0
        lines = (tmp_path / "orthogonality.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        indices = [int(x) for x in header[1:]]
        from ramsmooth import euler_phi
        for line in lines[1:]:
            cells = line.split(",")
            q = int(cells[0])
            for ell, cell in zip(indices, cells[1:]):
                expected = f"{euler_phi(ell)}/1" if q == ell else "0/1"
                assert cell == expected


class TestDeterminism:
    def test_coeffs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["coeffs", "--function", "ramanujan:6", "--V", "3",
                         "--ell-max", "12", "--out", str(out)])
            assert code == 0
        assert (a / "coeffs.csv").read_bytes() == (b / "coeffs.csv").read_bytes()

    def test_conjecture1_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["conjecture1", "--Q", "3", "--index-bound", "4",
                         "--shift-bound", "4", "--x-start", "16384",
                         "--out", str(out)])
            assert code == 0
        assert (a / "conjecture1.json").read_bytes() == \
            (b / "conjecture1.json").read_bytes()


class TestParserBuiltOnce:
    def test_usage_error_then_valid_argv(self, tmp_path):
        assert run(["coeffs", "--function", "mu", "--V", "x"], tmp_path) == 3
        assert run(["coeffs", "--function", "mu", "--V", "3",
                    "--ell-max", "4"], tmp_path) == 0

    def test_subcommands_in_a_row_match_fresh_runs(self, tmp_path):
        argvs = [["coeffs", "--function", "phi-over-n", "--V", "5",
                  "--ell-max", "6"],
                 ["correlation", "--f", "mu", "--g", "ramanujan:3",
                  "--N", "12", "--Q", "4"]]
        env = {**os.environ,
               "PYTHONPATH": str(Path(ramsmooth.__file__).parents[1])}
        for i, argv in enumerate(argvs):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out",
                             str(tmp_path / "row" / str(i))]) == 0
            subprocess.run([sys.executable, "-m", "ramsmooth.cli", *argv,
                            "--out", str(tmp_path / "fresh" / str(i))],
                           env=env, check=True, capture_output=True)
        for i in range(len(argvs)):
            fresh = sorted((tmp_path / "fresh" / str(i)).iterdir())
            assert fresh
            for path in fresh:
                assert (tmp_path / "row" / str(i) / path.name).read_bytes() \
                    == path.read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, text", [
        (OverflowError("int too large to convert"), 3, "input too large"),
        (MemoryError(), 3, "input too large"),
        (ArithmeticError("period audit failed"), 1, "period audit failed"),
    ])
    def test_unmapped_errors(self, exc, code, text, tmp_path, capsys,
                             monkeypatch):
        def command(cfg):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "coeffs", command)
        assert run(["coeffs", "--function", "mu", "--V", "3"],
                   tmp_path) == code
        err = capsys.readouterr().err
        assert text in err and err.count("\n") == 1

    def test_counterexample_drift_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ramsmooth.reef.euler_phi", lambda n: n + 1)
        assert run(["counterexample", "--N", "20", "--Q", "5", "--n0", "2",
                    "--q0", "3"], tmp_path) == 1
        err = capsys.readouterr().err
        assert "counterexample values drifted" in err
        assert err.count("\n") == 1

    def test_usage_error_unknown_function(self, tmp_path):
        assert run(["coeffs", "--function", "nope", "--V", "3"], tmp_path) == 3

    def test_usage_error_missing_flags(self, tmp_path):
        assert run(["coeffs"], tmp_path) == 3

    @pytest.mark.parametrize("args", [
        ["conjecture1", "--Q", "3", "--target-radius", "abc"],
        ["conjecture1", "--Q", "3", "--target-radius", "1/0"],
        ["conjecture1", "--Q", "3", "--target-radius", "0"],
        ["conjecture1", "--Q", "3", "--target-radius", "-1"],
        ["reef-residual", "--N", "20", "--Q", "5", "--n0", "2", "--q0", "3",
         "--a-max", "10", "--delta", "abc"],
        ["reef-residual", "--N", "20", "--Q", "5", "--n0", "2", "--q0", "3",
         "--a-max", "10", "--delta", "5/4"],
        ["reef-residual", "--N", "20", "--Q", "5", "--n0", "2", "--q0", "3",
         "--a-max", "10", "--delta", "0"],
    ])
    def test_bad_rational_flag_is_usage_error(self, args, tmp_path, capsys):
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "conjecture1.json").exists()
        assert not (tmp_path / "reef_residual.json").exists()

    @pytest.mark.parametrize("args", [
        ["correlation", "--f", "mu", "--g", "ramanujan:3", "--N", "5",
         "--Q", "0"],
        ["reef-residual", "--N", "10", "--f", "mu", "--g", "ramanujan:3",
         "--Q", "0", "--a-max", "3"],
        # period lcm(1..20) = 232792560 is over the budget
        ["correlation", "--f", "mu", "--g", "ramanujan:3", "--N", "20",
         "--Q", "20"],
        ["correlation", "--f", "mu", "--g", "ramanujan:3", "--N", "80000",
         "--Q", "80000"],
        # without --Q the range bound is the modulus
        ["correlation", "--f", "mu", "--g", "ramanujan:20", "--N", "30"],
        ["correlation", "--f", "mu", "--g", "@TABLE", "--N", "20000",
         "--Q", "20000"],
    ])
    def test_bad_range_bound_is_usage_error(self, args, tmp_path, capsys,
                                            monkeypatch):
        def refuse(*args):
            raise AssertionError("range-Q function built")

        table = tmp_path / "g.tsv"
        table.write_text("#mode=eratosthenes\n1\t1/1\n2\t-1/2\n",
                         encoding="utf-8")
        args = [a.replace("TABLE", str(table)) for a in args]
        monkeypatch.setattr(RangeQFunction, "period_table", refuse)
        monkeypatch.setattr(functions, "build_range_q", refuse)
        monkeypatch.setattr(cli, "range_q", refuse)
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "correlation.csv").exists()
        assert not (tmp_path / "reef_residual.json").exists()

    @pytest.mark.parametrize("g", ["mu", "indicator:3", "@DIRECT"])
    @pytest.mark.parametrize("command", ["correlation", "reef-residual"])
    def test_g_without_finite_support_is_usage_error(self, g, command,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("g or its table built")

        table = tmp_path / "direct.tsv"
        table.write_text("#mode=direct\n1\t1/1\n2\t-1/2\n",
                         encoding="utf-8")
        monkeypatch.setattr(cli, "range_q", refuse)
        monkeypatch.setattr(cli, "CorrelationTable", refuse)
        args = [command, "--f", "mu", "--g", g.replace("@DIRECT", f"@{table}"),
                "--N", "10"]
        if command == "reef-residual":
            args += ["--a-max", "3"]
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "has no finite transform support" in err
        assert not (tmp_path / "correlation.csv").exists()
        assert not (tmp_path / "reef_residual.json").exists()

    @pytest.mark.parametrize("args", [
        ["--index-bound", "2", "--shift-bound", "0"],
        ["--index-bound", "0"],
        ["--shift-bound", "-1"],
        ["--max-witnesses", "0"],
        ["--max-witnesses", "-1"],
    ])
    def test_bad_sweep_bound_is_usage_error(self, args, tmp_path, capsys):
        assert run(["conjecture1", "--Q", "3", *args], tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "conjecture1.json").exists()

    @pytest.mark.parametrize("args", [
        # an instance needs all three of --n0, --q0 and --Q
        ["reef-residual", "--N", "10", "--n0", "9", "--q0", "5",
         "--a-max", "3"],
        ["reef-residual", "--N", "10", "--q0", "5", "--Q", "5",
         "--a-max", "3"],
        ["coeffs", "--function", "mu", "--V", "3", "--ell-max", "0"],
        ["coeffs", "--function", "mu", "--V", "3", "--ell-max", "-5"],
    ])
    def test_bad_flag_set_is_usage_error(self, args, tmp_path, capsys):
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "reef_residual.json").exists()
        assert not (tmp_path / "coeffs.csv").exists()

    @pytest.mark.parametrize("Q", ["13", "100000000"])
    def test_default_sweep_span_has_budget(self, tmp_path, capsys,
                                           monkeypatch, Q):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        # the default span lcm(1..Q) >= 360360 is over the period budget,
        # and the check comes before the context, whose cost grows with Q
        monkeypatch.setattr(cli, "find_shifted_orthogonality_violations",
                            refuse)
        monkeypatch.setattr(cli, "SmoothContext", refuse)
        assert run(["conjecture1", "--Q", Q], tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "conjecture1.json").exists()

    def test_undecided_conjecture_sweep(self, tmp_path):
        # unit indices always straddle at an impossible radius target
        code = run(["conjecture1", "--Q", "3", "--index-bound", "1",
                    "--shift-bound", "1", "--x-start", "64", "--x-cap", "64",
                    "--target-radius", "1/1000000000"], tmp_path)
        assert code == 2
        manifest = json.loads((tmp_path / "failures.json").read_text())
        assert manifest["failures"][0]["check"] == "conjecture1-undecided"


# Desk-scale and malformed values per flag kind: Q <= 6, N <= 40, index
# and shift bounds <= 3.
_Q = ["-1", "0", "1", "2", "3", "5", "6", "x"]
_N = ["-1", "0", "1", "5", "12", "40", "x"]
_BOUND = ["-1", "0", "1", "2", "3", "x"]
_COUNT = ["-1", "0", "1", "3", "40", "1/2"]
_CUTOFF = ["-1", "0", "1", "64", "1024", "x"]
_RATIONAL = ["1/1000", "1/4", "0", "-1", "5/4", "1/0", "abc"]
_FUNCTION = ["mu", "constant-one", "phi-over-n", "ramanujan:3",
             "ramanujan:0", "indicator:2", "indicator:-1", "nope", "@MISSING"]
_RANGE_Q = ["constant-one", "ramanujan:3", "ramanujan:6", "ramanujan:0",
            "ramanujan:-2", "ramanujan:x", "mu", "@MISSING"]
_FLAGS = {
    "coeffs": {"--function": _FUNCTION, "--V": _Q, "--ell-max": _COUNT},
    "expand": {"--function": _FUNCTION, "--V": _Q, "--a": _COUNT,
               "--L": _COUNT},
    "orthogonality": {"--Q": _Q, "--max": _COUNT},
    "correlation": {"--f": _FUNCTION, "--g": _RANGE_Q, "--N": _N, "--Q": _Q},
    "counterexample": {"--N": _N, "--Q": _Q, "--n0": _BOUND, "--q0": _Q},
    "conjecture1": {"--Q": _Q, "--index-bound": _BOUND,
                    "--shift-bound": _BOUND, "--x-start": _CUTOFF,
                    "--x-cap": _CUTOFF, "--target-radius": _RATIONAL,
                    "--max-witnesses": _BOUND},
    "reef-residual": {"--N": _N, "--Q": _Q, "--n0": _BOUND, "--q0": _Q,
                      "--f": _FUNCTION, "--g": _RANGE_Q, "--a-max": _COUNT,
                      "--delta": _RATIONAL},
    "verify-all": {"--seed": ["1", "-1", "x"]},
}


# flags argparse requires are always given, with any of their values
_REQUIRED = {
    "coeffs": {"--function", "--V"},
    "expand": {"--function", "--V", "--a"},
    "orthogonality": {"--Q"},
    "correlation": {"--f", "--g", "--N"},
    "counterexample": {"--N", "--Q", "--n0", "--q0"},
    "conjecture1": {"--Q"},
    "reef-residual": {"--N", "--a-max"},
    "verify-all": set(),
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_code(command, data):
    argv = [command]
    for flag, values in _FLAGS[command].items():
        drawn = st.sampled_from(values)
        if flag not in _REQUIRED[command]:
            drawn = st.none() | drawn
        value = data.draw(drawn, label=flag)
        if value is not None:
            argv += [flag, value]
    with tempfile.TemporaryDirectory() as out:
        argv = [a.replace("@MISSING", f"@{out}/missing.tsv") for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()


def test_verify_all_passes(tmp_path):
    for seed in ("1", "2"):
        assert run(["verify-all", "--seed", seed], tmp_path) == 0
        assert not (tmp_path / "failures.json").exists()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--function", "mu", "--V", "3", "--ell-max", "2"],
    ["counterexample", "--N", "5", "--Q", "3", "--n0", "2", "--q0", "3"],
])
def test_seed_belongs_to_verify_all_only(tmp_path, capsys, argv):
    # no other subcommand draws anything at random
    assert run([*argv, "--seed", "1"], tmp_path) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "--seed" in err
    assert list(tmp_path.iterdir()) == []


class TestCommandsSmoke:
    def test_coeffs_csv_schema(self, tmp_path):
        code = run(["coeffs", "--function", "constant-one", "--V", "2",
                    "--ell-max", "4"], tmp_path)
        assert code == 0
        lines = (tmp_path / "coeffs.csv").read_text().strip().split("\n")
        assert lines[0] == "ell,win_center,win_radius,car_center,car_radius,method"
        assert lines[1] == "1,1/1,0/1,1/1,0/1,exact"

    def test_expand(self, tmp_path):
        code = run(["expand", "--function", "ramanujan:3", "--V", "3",
                    "--a", "1", "2", "9", "--L", "8"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "expand.json").read_text())
        assert all(p["consistent"] for p in report["points"])

    def test_correlation(self, tmp_path):
        code = run(["correlation", "--f", "indicator:2", "--g", "ramanujan:3",
                    "--Q", "5", "--N", "10"], tmp_path)
        assert code == 0
        summary = json.loads(
            (tmp_path / "correlation_summary.json").read_text())
        assert summary["decomposition_max_deviation"] == "0/1"

    def test_constant_one_takes_the_range_bound(self, tmp_path):
        # constant-one is c_1: with --Q 5 both read g = 1 over period 60
        for g in ("constant-one", "ramanujan:1"):
            assert run(["correlation", "--f", "mu", "--g", g, "--Q", "5",
                        "--N", "10"], tmp_path / g) == 0
        for name in ("correlation.csv", "correlation_coeffs.csv",
                     "correlation_summary.json"):
            assert (tmp_path / "constant-one" / name).read_bytes() == \
                (tmp_path / "ramanujan:1" / name).read_bytes()
        summary = json.loads(
            (tmp_path / "constant-one" / "correlation_summary.json").read_text())
        assert summary["period"] == 60

    def test_correlation_from_file(self, tmp_path):
        table = tmp_path / "g.tsv"
        table.write_text("#mode=eratosthenes\n1\t1/1\n2\t-1/2\n3\t1/3\n",
                         encoding="utf-8")
        code = run(["correlation", "--f", "mu", "--g", f"@{table}",
                    "--Q", "4", "--N", "12"], tmp_path)
        assert code == 0

    def test_correlation_of_zero_window(self, tmp_path):
        # mu(1) g + mu(2) g = 0 for constant g = 2**70 or 2**-63
        table = tmp_path / "g.tsv"
        for g1 in (f"{2 ** 70}", f"1/{2 ** 63}"):
            table.write_text(f"#mode=eratosthenes\n1\t{g1}\n",
                             encoding="utf-8")
            assert run(["correlation", "--f", "mu", "--g", f"@{table}",
                        "--N", "2"], tmp_path) == 0
            summary = json.loads(
                (tmp_path / "correlation_summary.json").read_text())
            assert summary["decomposition_max_deviation"] == "0/1"

    def test_reef_residual(self, tmp_path):
        code = run(["reef-residual", "--N", "20", "--Q", "5", "--n0", "2",
                    "--q0", "3", "--a-max", "10"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "reef_residual.json").read_text())
        assert report["rows"][0]["defect"] == "3/2"


class TestInputBudgets:
    @pytest.mark.parametrize("args", [
        ["counterexample", "--N", "10000000000", "--Q", "5", "--n0", "4",
         "--q0", "5"],
        ["correlation", "--f", "mu", "--g", "ramanujan:12", "--Q", "12",
         "--N", "100000"],
        # period 1: the budget bounds N itself
        ["correlation", "--f", "mu", "--g", "constant-one", "--N", "1000001"],
        ["reef-residual", "--N", "1000000", "--Q", "5", "--n0", "4",
         "--q0", "5", "--a-max", "3"],
        ["reef-residual", "--N", "100000", "--f", "mu", "--g",
         "ramanujan:12", "--Q", "12", "--a-max", "3"],
    ])
    def test_table_length_has_budget(self, args, tmp_path, capsys,
                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f evaluated or a table built")

        monkeypatch.setattr(ramsmooth.ArithmeticFunctionSpec, "evaluate",
                            refuse)
        monkeypatch.setattr(ramsmooth.CorrelationTable, "__init__", refuse)
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "table budget" in err
        assert list(tmp_path.iterdir()) == []

    def test_table_budget_admits_documented_runs(self, tmp_path):
        budget = ramsmooth.correlations.MAX_TABLE_WORK
        table_budget = ramsmooth.correlations.table_budget
        # the README's counterexample (Q = 12, N = 20) and the benchmark's
        # correlation cells (Q <= 8 with N <= 80, Q <= 10 with N <= 54)
        for Q, N in ((12, 20), (8, 80), (10, 54), (12, 36), (1, budget // 2)):
            table_budget(Q, N)
        for Q, N in ((12, 37), (1, budget // 2 + 1)):
            with pytest.raises(ValueError, match="table budget"):
                table_budget(Q, N)
        assert run(["counterexample", "--N", "20", "--Q", "12", "--n0", "11",
                    "--q0", "12"], tmp_path) == 0

    @pytest.mark.parametrize("args, flag", [
        (["coeffs", "--function", "mu", "--V", "3000", "--ell-max", "2"],
         "--V 3000"),
        (["coeffs", "--function", "constant-one", "--V", "601"], "--V 601"),
        (["expand", "--function", "mu", "--V", "601", "--a", "1"], "--V 601"),
        (["orthogonality", "--Q", "1000000"], "--Q 1000000"),
    ])
    def test_smoothness_has_bound(self, args, flag, tmp_path, capsys,
                                  monkeypatch):
        def refuse(*args):
            raise AssertionError("smooth context built")

        monkeypatch.setattr(cli, "SmoothContext", refuse)
        assert run(args, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    def test_smoothness_bound_is_written(self, tmp_path):
        V = str(cli.MAX_SMOOTHNESS)
        for args in (["coeffs", "--function", "mu", "--V", V, "--ell-max",
                      "2"],
                     ["expand", "--function", "mu", "--V", V, "--a", "1",
                      "--L", "16"],
                     ["orthogonality", "--Q", V, "--max", "6"]):
            assert run(args, tmp_path) == 0

    def test_digit_limit_is_one_line(self, tmp_path, capsys):
        # C(N, 1) = 10**8000 has more digits than Python writes
        big = 10 ** 4000
        f, g = tmp_path / "f.tsv", tmp_path / "g.tsv"
        f.write_text(f"#mode=direct\n1\t{big}\n", encoding="utf-8")
        g.write_text(f"#mode=eratosthenes\n1\t{big}\n", encoding="utf-8")
        assert run(["correlation", "--f", f"@{f}", "--g", f"@{g}", "--N",
                    "1"], tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
