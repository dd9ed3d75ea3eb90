"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import warnings

import pytest

from mvabscissa import classify, cli, continuation, mvt

from conftest import read_csv


def run(*argv):
    return cli.run(list(argv))


class TestAbscissae:
    def test_parabola_single_line(self, capsys):
        assert run("abscissae", "-f", "-x^2+2*x", "-a", "0", "-b", "2") == 0
        assert capsys.readouterr().out == "1\n"

    def test_cubic_two_lines(self, capsys):
        assert run("abscissae", "-f", "x^3-3*x^2+2*x", "-a", "0", "-b", "2.5") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        want = [(6 - math.sqrt(21)) / 6, (6 + math.sqrt(21)) / 6]
        for line, w in zip(lines, want):
            assert abs(float(line) - w) < 1e-9

    def test_a_large_b_warns_nothing(self, capsys):
        # the scan takes only the secant slope; F_b would square b - a0,
        # which overflows at b = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("abscissae", "-f", "sin(x)", "-a", "0", "-b", "1e200") == 0
        assert capsys.readouterr().err == ""

    def test_f_beyond_1e154_warns_nothing(self, capsys):
        # F reaches 1e300: the sign tests of its values must not multiply them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("abscissae", "-f", "exp(exp(exp(x)))", "-a", "0", "-b", "1.874") == 0
        assert capsys.readouterr() == ("1.87193626894\n", "")

    def test_numerical_failure_exit_code(self, capsys):
        assert run("abscissae", "-f", "x", "-a", "0", "-b", "1") == 2
        assert "Degenerate" in capsys.readouterr().err


class TestClassify:
    def test_pure_quartic_json(self, capsys):
        assert run("classify", "-f", "x^4", "-a", "-1", "-b", "1", "-c", "0") == 0
        d = json.loads(capsys.readouterr().out)
        assert d["case"] == "UNIQUE_ODD"
        assert d["k"] == 3
        assert d["l"] == 1

    def test_non_solution_exit_code(self, capsys):
        assert run("classify", "-f", "-x^2+2*x", "-a", "0", "-b", "2",
                   "-c", "0.7") == 2

    def test_non_finite_point_is_a_usage_error(self, tmp_path, capsys):
        for c in ("nan", "inf"):
            assert run("classify", "-f", "x^2", "-a", "0", "-b", "1", "-c", c) == 1
            assert "finite" in capsys.readouterr().err
        assert run("trace", "-f", "x^2", "-a", "0", "-b", "1", "-c", "nan",
                   "--b-min", "0.5", "--b-max", "1.5", "-o", str(tmp_path / "b.csv")) == 1
        assert "finite" in capsys.readouterr().err


class TestTrace:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "branch.csv"
        assert run("trace", "-f", "-x^2+2*x", "-a", "0", "-b", "2", "-c", "1",
                   "--b-min", "0.5", "--b-max", "3.5", "--step", "0.01",
                   "-o", str(out)) == 0
        text = out.read_text()
        assert text.startswith("b,c,residual,column\n")
        assert max(abs(c - b / 2.0) for b, c, _r, _k in read_csv(text)) <= 1e-8

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "branch.json"
        assert run("trace", "-f", "-x^2+2*x", "-a", "0", "-b", "2", "-c", "1",
                   "--b-min", "0.5", "--b-max", "3.5", "--step", "0.01",
                   "--format", "json", "-o", str(out)) == 0
        d = json.loads(out.read_text())
        assert d["parameter"] == "b" and d["points"]
        assert max(abs(q["c"] - q["b"] / 2.0) for q in d["points"]) <= 1e-8

    def test_degenerate_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "branch.csv"
        code = run("trace", "-f", "x^4-(17/3)*x^3+11*x^2-9*x", "-a", "0",
                   "-b", "3", "-c", "1", "--b-min", "2.5", "--b-max", "3.5",
                   "-o", str(out))
        assert code == 2


class TestScan:
    @pytest.mark.parametrize("argv", [
        ["scan", "--columns", str(continuation.MAX_POINTS + 1)],
        ["scan", "--c-grid", str(mvt.MAX_GRID_N + 1)],
        ["abscissae", "-b", "2.5", "--c-grid", str(mvt.MAX_GRID_N + 1)],
    ])
    def test_sizes_above_their_caps_exit_1(self, tmp_path, capsys, argv):
        scan = ["--b-min", "0.1", "--b-max", "3.5", "-o", str(tmp_path / "s.csv")]
        assert run(*argv, "-f", "x^3-3*x^2+2*x", "-a", "0",
                   *(scan if argv[0] == "scan" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be >= " in err

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run("scan", "-f", "x^3-3*x^2+2*x", "-a", "0", "--b-min", "0.1",
                   "--b-max", "3.5", "--columns", "30", "-o", str(out)) == 0
        assert out.read_text().startswith("b,c,residual,column\n")

    def test_svg_output(self, tmp_path, capsys):
        out = tmp_path / "scan.svg"
        assert run("scan", "-f", "-x^2+2*x", "-a", "0", "--b-min", "0.1",
                   "--b-max", "3.9", "--columns", "20", "--format", "svg",
                   "-o", str(out)) == 0
        assert out.read_text().startswith("<svg ")


class TestGuaranteed:
    def test_pure_quartic(self, capsys):
        assert run("guaranteed", "-f", "x^4", "-a", "-1", "-b", "1",
                   "--b-min", "0.8", "--b-max", "1.2") == 0
        d = json.loads(capsys.readouterr().out)
        assert abs(d["c0"]) <= 1e-7
        assert d["k"] == 3
        assert d["points"] > 10

    def test_extremum_is_searched_once(self, capsys, monkeypatch):
        calls = []
        find = classify.find_extremal_abscissa

        def counted(*args, **kwargs):
            calls.append(args)
            return find(*args, **kwargs)

        monkeypatch.setattr(classify, "find_extremal_abscissa", counted)
        assert run("guaranteed", "-f", "x^4", "-a", "-1", "-b", "1",
                   "--b-min", "0.8", "--b-max", "1.2") == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["k"] == 3


class TestFixedPoint:
    def test_square_root_branch(self, capsys):
        assert run("fixed-point", "--f1", "x", "--f2", "x^2",
                   "--x0", "1", "--y0", "1", "--x", "1.2") == 0
        got = float(capsys.readouterr().out)
        assert abs(got - math.sqrt(1.2)) <= 1e-10

    def test_cosine_equation(self, capsys):
        assert run("fixed-point", "--f1", "0*x", "--f2", "x - cos(x)",
                   "--x0", "0", "--y0", "0.7", "--x", "0") == 0
        got = float(capsys.readouterr().out)
        assert abs(got - math.cos(got)) <= 1e-10

    @pytest.mark.parametrize("x", ["1e200", "1e308"])
    def test_a_box_past_the_floats_range_fails_without_warning(self, capsys, x):
        # the walk toward x samples boxes whose F, or whose ends, overflow;
        # that ends in one DomainError line, with no RuntimeWarning before it
        assert run("fixed-point", "--f1", "x", "--f2", "x^2", "--x0", "1", "--y0", "1",
                   "--x", x) == 2
        err = capsys.readouterr().err
        assert err.startswith("DomainError: ") and err.count("\n") == 1

    def test_f1_need_not_be_finite_on_the_x_box(self, capsys):
        # exp(1/x) overflows on the first x-box, which then shrinks, with no
        # warning: the box's values may be inf or NaN
        assert run("fixed-point", "--f1", "exp(1/x)", "--f2", "x", "--x0", "0.05",
                   "--y0", "4.851651954097903e8", "--x", "0.06") == 0
        got = float(capsys.readouterr().out)
        assert abs(got - math.exp(1.0 / 0.06)) <= 1e-13 * got

    def test_an_x_box_past_the_domain_reports_the_value(self, capsys):
        # f1 is run for its value alone on the x-box
        assert run("fixed-point", "--f1", "sqrt(x)", "--f2", "x",
                   "--x0", "1", "--y0", "1", "--x", "2") == 2
        assert capsys.readouterr().err == "DomainError: sqrt of negative value in 'sqrt(x)'\n"


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run("abscissae", "-f", "x^2", "-a", "0") == 1         # missing -b
        assert run("abscissae", "--nope") == 1                       # unknown flag
        assert run("nosuchcommand") == 1
        capsys.readouterr()

    def test_options_a_command_does_not_use_are_refused(self, tmp_path, capsys):
        # each was once parsed and then dropped without a word
        assert run("abscissae", "-f", "x^3", "-a", "0", "-b", "1", "--kmax", "8") == 1
        assert run("scan", "-f", "x^3", "-a", "0", "--b-min", "0.5", "--b-max", "1",
                   "--kmax", "8", "-o", str(tmp_path / "scan.csv")) == 1
        assert run("classify", "-f", "x^4", "-a", "-1", "-b", "1", "-c", "0",
                   "--tol", "1e-3") == 1
        assert capsys.readouterr().out == ""

    def test_scan_with_an_infinite_b_max_is_a_usage_error(self, tmp_path, capsys):
        for b0 in ((), ("-b", "1")):
            assert run("scan", "-f", "x^3", "-a", "0", *b0, "--b-min", "0.5", "--b-max", "inf",
                       "-o", str(tmp_path / "scan.csv")) == 1
            assert capsys.readouterr().err.startswith("error: need finite")
        assert not (tmp_path / "scan.csv").exists()

    def test_guaranteed_takes_both_bounds_or_neither(self, capsys):
        for bound in ("--b-min", "--b-max"):
            assert run("guaranteed", "-f", "x^4", "-a", "-1", "-b", "1", bound, "1.1") == 1
            assert "together" in capsys.readouterr().err

    def test_pole_at_an_endpoint_is_numerical_failure(self, capsys):
        # once a ZeroDivisionError traceback, from 0.0 ** -0.5 on a float
        assert run("abscissae", "-f", "x^(-0.5)", "-a", "0", "-b", "1") == 2
        assert "DomainError" in capsys.readouterr().err

    def test_syntax_error_is_numerical_failure(self, capsys):
        assert run("abscissae", "-f", "2*", "-a", "0", "-b", "2") == 2
        assert "offset 2" in capsys.readouterr().err

    def test_over_deep_expressions_are_syntax_errors(self, capsys):
        # each once ended in a RecursionError traceback
        for text in ("(" * 3000 + "x" + ")" * 3000, "x" + "+x" * 2000, "x" + "^1" * 500):
            assert run("abscissae", "-f", text, "-a", "0", "-b", "2") == 2
            assert "ExprSyntaxError: expression nested deeper" in capsys.readouterr().err

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        # each once ended in an OSError traceback
        assert run("scan", "-f", "x^3", "-a", "0", "--b-min", "0.5", "--b-max", "1",
                   "-o", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: [Errno")
        assert run("trace", "-f", "x^2", "-a", "0", "-b", "2", "-c", "1",
                   "--b-min", "1", "--b-max", "3",
                   "-o", str(tmp_path / "missing" / "o.csv")) == 1
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_bad_tol_or_step_is_a_usage_error(self, tmp_path, capsys):
        # --tol -1 once printed nothing and exited 0, --step 0 meant the default
        for tol in ("-1", "0", "nan"):
            assert run("abscissae", "-f", "x^2", "-a", "0", "-b", "2", "--tol", tol) == 1
            assert "tol must be positive and finite" in capsys.readouterr().err
        assert run("trace", "-f", "x^2", "-a", "0", "-b", "2", "-c", "1",
                   "--b-min", "1", "--b-max", "3", "--step", "0",
                   "-o", str(tmp_path / "o.csv")) == 1
        assert "step must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        # fixed-point once named max_iter, which it has no flag for
        for tol in ("0", "-1", "nan", "inf"):
            assert run("fixed-point", "--f1", "x", "--f2", "x^2", "--x0", "1", "--y0", "1",
                       "--x", "1.2", "--tol", tol) == 1
            assert capsys.readouterr().err == (
                f"error: tol must be positive and finite, got {float(tol)!r}\n")

    def test_kmax_out_of_range_is_a_usage_error(self, tmp_path, capsys):
        # --kmax 0 once printed a DEGENERATE report with k = l = 0, and -3,
        # -1 and 32 exited with unrelated messages, 32 with OrderOverflow
        quartic = ("-f", "x^4", "-a", "-1", "-b", "1")
        for kmax in ("0", "-3", "32"):
            assert run("classify", *quartic, "-c", "0", "--kmax", kmax) == 1
            assert capsys.readouterr().err == f"error: kmax must be in 1..31, got {kmax}\n"
        for kmax in ("-1", "0", "32"):
            assert run("guaranteed", *quartic, "--kmax", kmax) == 1
            assert capsys.readouterr().err == f"error: kmax must be in 1..31, got {kmax}\n"
        assert run("trace", *quartic, "-c", "0", "--b-min", "0.9", "--b-max", "1.1",
                   "--kmax", "0", "-o", str(tmp_path / "o.csv")) == 1
        assert "kmax must be in 1..31" in capsys.readouterr().err
        assert run("classify", *quartic, "-c", "0", "--kmax", "31") == 0
        assert json.loads(capsys.readouterr().out)["k"] == 3

    def test_non_finite_fixed_point_input_is_a_usage_error(self, capsys):
        # each once exited 2 with a numerical failure
        for x0, x in (("nan", "1.2"), ("1", "nan")):
            assert run("fixed-point", "--f1", "x", "--f2", "x^2",
                       "--x0", x0, "--y0", "1", "--x", x) == 1
            assert "finite" in capsys.readouterr().err

    def test_help_exits_zero_and_lists_flags(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        for cmd in ("abscissae", "classify", "trace", "scan", "guaranteed",
                    "fixed-point"):
            assert cmd in out
        assert run("scan", "--help") == 0
        out = capsys.readouterr().out
        for flag in ("--function", "--b-min", "--b-max", "--columns",
                     "--c-grid", "--tol", "--format", "--output"):
            assert flag in out
