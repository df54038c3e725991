import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sphere_reg.cli
import sphere_reg.experiments
import sphere_reg.harmonics
import sphere_reg.operators
import sphere_reg.quadrature
import sphere_reg.selection
import sphere_reg.verify
from sphere_reg import (
    HarmonicCoefficients,
    apply_forward,
    sphere_rule,
    symbol_preset,
)
from sphere_reg.cli import (
    EXIT_INVALID_INPUT,
    EXIT_MISSING_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    config_to_case,
    main,
    parse_config,
    read_samples_csv,
    write_coeffs_csv,
    write_results_csv,
    write_rule_csv,
    write_samples_csv,
    write_trace_csv,
)
from sphere_reg.errors import ValidationError
from sphere_reg.experiments import METHODS, LeaderSummary, TrialResult
from sphere_reg.selection import TraceRecord
from conftest import at_points


def cli_import_loads(*modules):
    """Which of modules a fresh `import sphere_reg.cli` puts in sys.modules."""
    root = Path(__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", "import sys, sphere_reg.cli; "
         "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))", *modules],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is for the tests.
    assert cli_import_loads("scipy") == []


def test_cli_import_leaves_the_process_pool_out():
    # run_case imports them when it forks; `solve` never pays for them.
    assert cli_import_loads("multiprocessing", "concurrent.futures") == []


def test_cli_import_leaves_verify_and_figures_out():
    # cmd_verify and cmd_experiment's plot import them; `solve` needs neither.
    assert cli_import_loads("sphere_reg.verify", "sphere_reg.figures") == []


class TestRuleCommand:
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--M", "30"],
             "e7a3b54a9a21dd40af2a2c6b4f944f5d8d88d60893a8cacf12fd6ae155ebaeb1"),
            (["--M", "60", "--rho", "1.3"],
             "8152ba8886c3f614dbd3d6cc347b0b7aeb5b58a3879b59b90ca798de526eccba"),
        ],
    )
    def test_rule_bytes_are_recorded(self, tmp_path, flags, digest):
        # Points and weights at 17 digits, as sphere_rule built them when
        # these digests were recorded.
        out = tmp_path / "rule.csv"
        assert main(["rule", *flags, "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_minimal_rule_row_count(self, tmp_path):
        out = tmp_path / "rule.csv"
        assert main(["rule", "--M", "0", "--rho", "1", "-o", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,z,weight"
        assert len(lines) == 1 + 2

    def test_m30_row_count(self, tmp_path):
        out = tmp_path / "rule.csv"
        assert main(["rule", "--M", "30", "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 1922

    def test_weights_sum_and_round_trip(self, tmp_path):
        out = tmp_path / "rule.csv"
        rho = 2.0
        assert main(["rule", "--M", "4", "--rho", str(rho), "-o", str(out)]) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        weights = np.array([float(r[3]) for r in rows])
        assert weights.sum() == pytest.approx(4.0 * math.pi * rho * rho, rel=1e-9)
        rule = sphere_rule(4, rho)
        np.testing.assert_array_equal(weights, rule.weights)  # 17g round-trips

    def test_invalid_flags(self, tmp_path):
        assert (
            main(["rule", "--M", "-2", "-o", str(tmp_path / "x.csv")])
            == EXIT_INVALID_INPUT
        )

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_rho_rejected(self, tmp_path, capsys, rho):
        out = tmp_path / "rule.csv"
        assert main(["rule", "--M", "1", "--rho", rho, "-o", str(out)]) == (
            EXIT_INVALID_INPUT
        )
        assert "rho" in capsys.readouterr().err
        assert not out.exists()


def make_samples(tmp_path, M=8, noise=0.0, seed=3):
    rng = np.random.default_rng(seed)
    rule = sphere_rule(M, 1.0)
    symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
    x = HarmonicCoefficients(
        M=M, radius=1.0, values=rng.uniform(-1.0, 1.0, (M + 1) ** 2)
    )
    samples = at_points(apply_forward(symbol, x), rule.points)
    if noise:
        samples = samples + noise * rng.standard_normal(rule.n_points)
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), rule, samples)
    return path, rule, x


def read_coeffs(path):
    """Values of a coefficient CSV, checking that rows run over the triangle."""
    k, j, values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    np.testing.assert_array_equal(k * k + j - 1, np.arange(values.size))
    return values


def loop_read_samples_csv(path, rule):
    """The row-by-row sample reader, kept as the reference for read_samples_csv."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "x,y,z,value":
        raise ValidationError(f"{path}: line 1: expected header 'x,y,z,value'")
    rows = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(rows) != rule.n_points:
        raise ValidationError(
            f"{path}: expected {rule.n_points} data rows for this rule, "
            f"got {len(rows)}"
        )
    tol = 1e-9 * max(1.0, rule.rho)
    samples = np.empty(rule.n_points)
    for i, (lineno, ln) in enumerate(rows):
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValidationError(
                f"{path}: line {lineno}: expected 4 fields, got {len(parts)}"
            )
        try:
            x, y, z, v = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: non-numeric field") from None
        if not np.max(np.abs(np.array([x, y, z]) - rule.points[i])) <= tol:
            raise ValidationError(
                f"{path}: line {lineno}: point does not match the canonical "
                f"rule point {i}"
            )
        if not math.isfinite(v):
            raise ValidationError(f"{path}: line {lineno}: non-finite sample value")
        samples[i] = v
    return samples


class TestSolveCommand:
    def test_exact_solve_recovers_coefficients(self, tmp_path):
        path, rule, x = make_samples(tmp_path)
        out = tmp_path / "coeffs.csv"
        code = main(
            [
                "solve",
                str(path),
                "--M", "8",
                "--symbol", "geometric(1.48)",
                "--lambda", "0",
                "--alpha", "0",
                "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        got = read_coeffs(out)
        np.testing.assert_allclose(got, x.values, atol=1e-9)

    def test_subnormal_rule_weights_refused(self, tmp_path, capsys):
        # At rho = 1e-158 the data rule's weights are subnormal: analyze
        # refuses them, by name, rather than losing the sums' digits.
        rule = sphere_rule(2, 1e-158)
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), rule, np.ones(rule.n_points))
        out = tmp_path / "coeffs.csv"
        code = main(
            ["solve", str(path), "--M", "2", "--R", "1e-158", "--rho", "1e-158"]
            + ["--symbol", "geometric(1.48)", "--auto", "-o", str(out)]
        )
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.splitlines() == [
            "error: rule weights are subnormal at rho = 1e-158"
        ]
        assert not out.exists()

    def test_auto_prints_selected_parameters(self, tmp_path, capsys):
        path, rule, x = make_samples(tmp_path, noise=0.05)
        out = tmp_path / "coeffs.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "solve",
                str(path),
                "--M", "8",
                "--symbol", "geometric(1.48)",
                "--auto",
                "--alpha-count", "10",
                "--alpha-factor", "3.0",
                "--lambda-count", "10",
                "--lambda-factor", "3.0",
                "--trace", str(trace),
                "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "selected alpha = " in printed
        assert "lambda = " in printed
        header, *rows = trace.read_text().splitlines()
        assert header == "alpha,chosen_lambda,inner_min_diff,outer_diff"
        assert len(rows) == 12  # zero + 11 grid values
        assert out.exists()

    def test_missing_parameters_rejected(self, tmp_path):
        path, _, _ = make_samples(tmp_path)
        code = main(
            [
                "solve", str(path),
                "--M", "8",
                "--symbol", "geometric(1.48)",
                "-o", str(tmp_path / "c.csv"),
            ]
        )
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "options, message",
        [
            ([], "either pass --auto or both --alpha and --lambda"),
            (["--alpha", "0"], "either pass --auto or both --alpha and --lambda"),
            (["--auto", "--alpha-factor", "1"], "alpha grid: "),
            (["--auto", "--lambda-count", "0"], "lambda grid: "),
            (["--alpha", "0", "--lambda", "0", "--symbol", "nope"], "symbol"),
            (["--alpha", "-1", "--lambda", "0"], "alpha must be finite and nonnegative"),
            (["--alpha", "0", "--lambda", "-1"], "lam must be finite and nonnegative"),
        ],
        ids=[
            "no-parameters", "no-lambda", "alpha-grid", "lambda-grid", "symbol",
            "negative-alpha", "negative-lambda",
        ],
    )
    def test_parameters_checked_before_the_samples_are_read(
        self, tmp_path, capsys, options, message
    ):
        # A missing sample file would exit 2; the parameters are named first.
        code = main(
            ["solve", str(tmp_path / "nope.csv"), "--M", "4"]
            + ["--symbol", "geometric(1.48)", *options, "-o", str(tmp_path / "c.csv")]
        )
        assert code == EXIT_INVALID_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("mode", [["--auto"], ["--alpha", "0", "--lambda", "0"]])
    def test_overflowing_penalty_exits_invalid(self, tmp_path, capsys, mode):
        # a_20 of polynomial(234) is about 4e-310, so beta_20 = inf; this
        # once printed two RuntimeWarnings and failed at alpha = 0 (exit 4).
        rule = sphere_rule(20, 1.0)
        path = tmp_path / "samples.csv"
        samples = np.random.default_rng(1).standard_normal(rule.n_points)
        write_samples_csv(str(path), rule, samples)
        out = tmp_path / "coeffs.csv"
        code = main(
            ["solve", str(path), "--M", "20", "--symbol", "polynomial(234)", *mode]
            + ["-o", str(out)]
        )
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.splitlines() == [
            "error: beta entries must be finite, got beta_20 = inf"
        ]
        assert not out.exists()

    def test_truncated_file_reports_line(self, tmp_path, capsys):
        path, rule, _ = make_samples(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:50]) + "\n")
        code = main(
            [
                "solve", str(path),
                "--M", "8",
                "--symbol", "geometric(1.48)",
                "--lambda", "0", "--alpha", "0",
                "-o", str(tmp_path / "c.csv"),
            ]
        )
        assert code == EXIT_INVALID_INPUT
        assert "error:" in capsys.readouterr().err

    def test_point_mismatch_detected(self, tmp_path, capsys):
        path, rule, _ = make_samples(tmp_path)
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[0] = format(float(parts[0]) + 1e-3, ".17g")
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "solve", str(path),
                "--M", "8",
                "--symbol", "geometric(1.48)",
                "--lambda", "0", "--alpha", "0",
                "-o", str(tmp_path / "c.csv"),
            ]
        )
        assert code == EXIT_INVALID_INPUT
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [0, 3])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", [["--auto"], ["--lambda", "0", "--alpha", "0"]])
    def test_non_finite_field_rejected(self, tmp_path, capsys, field, bad, mode):
        path, _, _ = make_samples(tmp_path, M=4)
        lines = path.read_text().splitlines()
        parts = lines[6].split(",")
        parts[field] = bad
        lines[6] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        code = main(
            ["solve", str(path), "--M", "4", "--symbol", "geometric(1.48)"]
            + mode
            + ["-o", str(out)]
        )
        assert code == EXIT_INVALID_INPUT
        assert "line 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--lambda"])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, flag):
        path, _, _ = make_samples(tmp_path, M=4)
        params = {"--alpha": "0", "--lambda": "0", flag: "inf"}
        code = main(
            ["solve", str(path), "--M", "4", "--symbol", "geometric(1.48)"]
            + [item for pair in params.items() for item in pair]
            + ["-o", str(tmp_path / "c.csv")]
        )
        assert code == EXIT_INVALID_INPUT
        assert "finite" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(
            [
                "solve", str(tmp_path / "nope.csv"),
                "--M", "4",
                "--symbol", "geometric(1.48)",
                "--lambda", "0", "--alpha", "0",
                "-o", str(tmp_path / "c.csv"),
            ]
        )
        assert code == EXIT_MISSING_INPUT
        assert capsys.readouterr().err.startswith("error:")


class TestSampleIO:
    def test_round_trip(self, tmp_path, rng):
        rule = sphere_rule(3, 1.5)
        samples = rng.standard_normal(rule.n_points)
        path = tmp_path / "s.csv"
        write_samples_csv(str(path), rule, samples)
        back = read_samples_csv(str(path), rule)
        np.testing.assert_array_equal(back, samples)

    def test_header_required(self, tmp_path):
        rule = sphere_rule(1, 1.0)
        path = tmp_path / "s.csv"
        path.write_text("a,b,c,d\n" + "0,0,1,5\n" * rule.n_points)
        with pytest.raises(ValidationError):
            read_samples_csv(str(path), rule)

    @pytest.mark.parametrize(
        "bad_lines, expected",
        [
            # (line number, field index, replacement) edits, in order; field
            # None replaces the line and "insert" inserts one before it.  The
            # earliest failing line wins, and on one line the point check
            # comes first.
            ([(5, 3, "nan"), (8, 0, "9")], "line 5: non-finite sample value"),
            ([(5, 0, "9"), (8, 3, "inf")], "line 5: point does not match the "
             "canonical rule point 3"),
            ([(6, 3, "-inf"), (6, 2, "9")], "line 6: point does not match the "
             "canonical rule point 4"),
            ([(4, 3, "nan"), (7, 1, "x")], "line 4: non-finite sample value"),
            ([(7, 2, "9"), (4, 1, "x")], "line 4: non-numeric field"),
            ([(3, 0, "9"), (5, None, "1,2")], "line 3: point does not match the "
             "canonical rule point 1"),
            ([(5, None, "1,2"), (9, 0, "9")], "line 5: expected 4 fields, got 2"),
            # A blank line 3 moves the NaN on line 5 to file line 6.
            ([(5, 3, "nan"), (3, "insert", "")], "line 6: non-finite sample value"),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, bad_lines, expected):
        path, rule, _ = make_samples(tmp_path, M=4)
        lines = path.read_text().splitlines()
        for lineno, field, text in bad_lines:
            if field == "insert":
                lines.insert(lineno - 1, text)
            elif field is None:
                lines[lineno - 1] = text
            else:
                parts = lines[lineno - 1].split(",")
                parts[field] = text
                lines[lineno - 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as info:
            read_samples_csv(str(path), rule)
        assert str(info.value) == f"{path}: {expected}"
        with pytest.raises(ValidationError) as reference:
            loop_read_samples_csv(str(path), rule)
        assert str(info.value) == str(reference.value)

    def test_values_equal_the_row_by_row_reader(self, tmp_path, rng):
        rule = sphere_rule(6, 1.7)
        path = tmp_path / "s.csv"
        write_samples_csv(str(path), rule, awkward_values(rng, rule.n_points))
        got = read_samples_csv(str(path), rule)
        want = loop_read_samples_csv(str(path), rule)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


    def test_vectorized_parse_equals_the_line_scan(self, tmp_path, rng, monkeypatch):
        # A well-formed M = 30 file takes the vectorized parse; the line scan
        # gives the same bits, -0.0, a subnormal and the float maximum too.
        rule = sphere_rule(30, 1.0)
        values = rng.standard_normal(rule.n_points)
        values[:3] = [-0.0, 5e-324 * 3, 1.7976931348623157e308]
        path = tmp_path / "s.csv"
        write_samples_csv(str(path), rule, values)
        lines = path.read_text().splitlines()
        scanned = sphere_reg.cli._scan_samples(str(path), lines, rule)[:, 3]

        def no_scan(*args):
            raise AssertionError("the line scan read a well-formed file")

        monkeypatch.setattr(sphere_reg.cli, "_scan_samples", no_scan)
        got = read_samples_csv(str(path), rule)
        np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64))
        np.testing.assert_array_equal(got.view(np.uint64), scanned.view(np.uint64))

    def test_header_and_empty_lines_count_no_rows(self, tmp_path):
        # As many lines as the rule has points, all empty: the line count
        # error, with no warning from a vectorized parse of no data.
        rule = sphere_rule(2, 1.0)
        path = tmp_path / "s.csv"
        path.write_text("x,y,z,value\n" + "\n" * rule.n_points)
        with pytest.raises(ValidationError, match="expected 18 data rows for this rule, got 0"):
            read_samples_csv(str(path), rule)


def test_solve_grid_defaults_rebuild_the_standard_grid():
    args = sphere_reg.cli.build_parser().parse_args(
        ["solve", "s.csv", "--M", "4", "--symbol", "sst", "-o", "c.csv"]
    )
    for name in ("alpha", "lambda"):
        grid = sphere_reg.cli._solve_grid(args, name)
        assert grid == sphere_reg.experiments.STANDARD_GRID


class TestOverflowingGrid:
    @pytest.mark.parametrize("name", ["alpha", "lambda"])
    def test_solve_grid_rejected_before_selection(
        self, tmp_path, capsys, monkeypatch, name
    ):
        path, _, _ = make_samples(tmp_path, M=4)
        calls = []
        monkeypatch.setattr(sphere_reg.cli, "select_two_step", lambda *a: calls.append(a))
        code = main(
            ["solve", str(path), "--M", "4", "--symbol", "geometric(1.48)", "--auto"]
            + [f"--{name}0", "1e-5", f"--{name}-factor", "1e100", f"--{name}-count", "4"]
            + ["-o", str(tmp_path / "c.csv")]
        )
        assert code == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {name} grid: ") and "overflows" in line

    @pytest.mark.parametrize("name", ["alpha", "lambda"])
    def test_config_grid_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, name
    ):
        cfg = write_config(
            tmp_path,
            f"case = fig1a\n{name}0 = 1e-5\n{name}_factor = 1e100\n"
            f"{name}_count = 4\noutput = {tmp_path / 'r.csv'}\n",
        )
        calls = []
        monkeypatch.setattr(sphere_reg.cli, "run_case", lambda case: calls.append(case))
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: config field '{name}*': ")
        assert "overflows" in line


def test_overflowing_smoothing_penalty_damps_to_zero_without_a_warning(
    tmp_path, capsys
):
    # beta_k^2 is about 9.4e8 at --beta-exponent 50, so lam beta_k^2
    # overflows on the top lambdas, whose damping is then its limit 0.
    path, _, _ = make_samples(tmp_path, M=1, noise=0.5)
    out = tmp_path / "coeffs.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["solve", str(path), "--M", "1", "--symbol", "geometric(1.48)", "--auto"]
            + ["--beta-exponent", "50", "--lambda0", "1e300", "-o", str(out)]
        )
    assert code == EXIT_OK
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("lambda = 1.2500000000000001e+300\n")
    assert np.all(read_coeffs(out) == 0.0)


class TestNonFiniteSelection:
    def test_underflowing_symbol_exits_numerical(self, tmp_path, capsys):
        # a_k^2 underflows to 0 for the top degrees, so the alpha = 0
        # candidates are infinite; the smoothing-only pick evaluates
        # alpha = 0 even when the alpha grid leaves it out.
        M = 20
        rule = sphere_rule(M, 1.0)
        path = tmp_path / "samples.csv"
        samples = np.random.default_rng(1).standard_normal(rule.n_points)
        write_samples_csv(str(path), rule, samples)
        out = tmp_path / "coeffs.csv"
        for extra in ([], ["--no-zero"]):
            code = main(
                [
                    "solve", str(path), "--M", str(M), "--symbol", "polynomial(160)",
                    "--auto", *extra, "-o", str(out),
                ]
            )
            assert code == EXIT_NUMERICAL, extra
            err = capsys.readouterr().err
            assert err.startswith("error: numerical failure") and "alpha = 0.0" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "rho, symbol, value, params, message",
        [
            # 1e308 overflows the analysis.
            (1.0, "geometric(1.48)", 1e308, ["--alpha", "0", "--lambda", "0"],
             "non-finite solution at alpha = 0.0, lambda = 0.0"),
            (1.0, "geometric(1.48)", 1e308, ["--auto"],
             "non-finite per-degree field sums"),
            # Finite field sums (4e307), but the picked solution's degree-0
            # coefficient, 1.4e308 / a_0 with a_0 = 1/2, overflows.
            (2.0, "sst", 2e307, ["--auto"], "non-finite solution at alpha"),
        ],
        ids=["fixed", "auto-field-sums", "auto-pick"],
    )
    def test_overflowing_samples_exit_numerical(
        self, tmp_path, capsys, rho, symbol, value, params, message
    ):
        M = 6
        rule = sphere_rule(M, rho)
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), rule, np.full(rule.n_points, value))
        out = tmp_path / "coeffs.csv"
        code = main(
            ["solve", str(path), "--M", str(M), "--rho", str(rho), "--symbol", symbol]
            + params
            + ["-o", str(out)]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: numerical failure") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "symbol, scale", [("geometric(2)", 3e306), ("polynomial(1)", 3e307)]
    )
    def test_overflowing_candidate_fields_exit_numerical(
        self, tmp_path, capsys, symbol, scale
    ):
        # Finite field sums and factors, but the (T, L) candidate fields
        # overflow; a NaN difference once won the selection silently.
        rule = sphere_rule(6, 1.0)
        path = tmp_path / "samples.csv"
        samples = scale * np.random.default_rng(1).standard_normal(rule.n_points)
        write_samples_csv(str(path), rule, samples)
        out, trace = tmp_path / "coeffs.csv", tmp_path / "trace.csv"
        code = main(
            ["solve", str(path), "--M", "6", "--symbol", symbol, "--auto"]
            + ["--trace", str(trace), "-o", str(out)]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: numerical failure: non-finite candidate fields at alpha = 0.0"
        ]
        assert not out.exists() and not trace.exists()

    def test_first_failing_alpha_of_a_block_exits_numerical(
        self, tmp_path, capsys, monkeypatch, grid_error_inputs
    ):
        # The nested pass raises inside its alpha grid (inputs no grid
        # can reach, since a non-finite factor at alpha > 0 needs one at
        # alpha = 0 first); the CLI reports the first failing alpha, exit 4.
        real = sphere_reg.selection._nested_pass
        monkeypatch.setattr(
            sphere_reg.selection, "_nested_pass", lambda *args: real(*grid_error_inputs)
        )
        path, _, _ = make_samples(tmp_path, M=6)
        out = tmp_path / "coeffs.csv"
        code = main(
            ["solve", str(path), "--M", "6", "--symbol", "geometric(1.48)", "--auto"]
            + ["-o", str(out)]
        )
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "error: numerical failure: non-finite candidate fields at alpha = 0.0001"
        ]
        assert not out.exists()


@pytest.mark.parametrize(
    "rho, R, symbol, message",
    [
        # (R/rho)^k overflows before the radii are checked.
        ("0.5", "1e150", "sst",
         "radii must satisfy 0 < R <= rho < inf, got R=1e+150, rho=0.5"),
        # (k + 1)/rho * (R/rho)^k overflows.
        ("1e-150", "0.5", "sst",
         "radii must satisfy 0 < R <= rho < inf, got R=0.5, rho=1e-150"),
        # rho^2 underflows to 0, so a_0 = 2/rho^2 divides by zero.
        ("1e-200", "1e-200", "sgg",
         "symbol 'sgg' entries must be finite, got a_0 = inf"),
    ],
    ids=["R-huge", "rho-tiny", "rho-squared-zero"],
)
def test_overflowing_preset_gives_one_error_line(
    tmp_path, capsys, rho, R, symbol, message
):
    # The preset's arithmetic warns nothing before the symbol's own error.
    rule = sphere_rule(4, float(rho))
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), rule, np.ones(rule.n_points))
    out = tmp_path / "coeffs.csv"
    code = main(
        ["solve", str(path), "--M", "4", "--rho", rho, "--R", R, "--symbol", symbol]
        + ["--alpha", "0.1", "--lambda", "0.1", "-o", str(out)]
    )
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_solve_auto_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Coefficient and trace CSVs from child processes with one OpenBLAS
    # thread and with the default count; at M = 20 the sup grid's 3,362
    # rows span several panels.
    path, _, _ = make_samples(tmp_path, M=20, noise=0.01)
    root = Path(__file__).parents[1]
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        coeffs = tmp_path / f"coeffs-{threads}.csv"
        trace = tmp_path / f"trace-{threads}.csv"
        child = subprocess.run(
            [sys.executable, "-m", "sphere_reg.cli", "solve", str(path), "--M", "20"]
            + ["--symbol", "geometric(1.48)", "--auto", "--trace", str(trace)]
            + ["-o", str(coeffs)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        outputs.append((coeffs.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "M, flags, digests",
    [
        (30, [], (
            "72ff9c8d33282a0431eb624f5a8a9ab0f17246e66c1ae9dbcf13c6cd970e77c9",
            "15393ef6d02893f2a7008ed68110019a81bd99475bdd3e4e59a54ee24f459f39",
            "a4794d4db73792f17eba55b817965ff397fe2531964321a21078a3781324564e",
        )),
        (30, ["--no-zero"], (
            "72ff9c8d33282a0431eb624f5a8a9ab0f17246e66c1ae9dbcf13c6cd970e77c9",
            "15393ef6d02893f2a7008ed68110019a81bd99475bdd3e4e59a54ee24f459f39",
            "2205b62546089069053ab0ce8cedf98f7574d307a22320d2769b7237bbfc5b47",
        )),
        (56, [], (
            "6a19b0d044c878f67b01358113dc9ee8d3ec1930f42e11835fc5b3c46fc9df8c",
            "28d16a4f5b6f3aa0fd4e397304f743fc79b13a6ddabcc56244c7d5e55e5a5105",
            "5c7abdc4ae7723854f75ebd3b2c5cbedc3cd14c9b28de88996b856f192de6a27",
        )),
        (56, ["--no-zero"], (
            "6a19b0d044c878f67b01358113dc9ee8d3ec1930f42e11835fc5b3c46fc9df8c",
            "28d16a4f5b6f3aa0fd4e397304f743fc79b13a6ddabcc56244c7d5e55e5a5105",
            "e6804febaed9809b43c7979ef07d5631deec62d265b3c9d52879ab3be04000e5",
        )),
    ],
    ids=["M30", "M30-no-zero", "M56", "M56-no-zero"],
)
def test_solve_auto_bytes_are_recorded(tmp_path, capsys, M, flags, digests):
    # sha256 of stdout, the coefficient CSV and the trace CSV, recorded on
    # OpenBLAS 0.3.31's SkylakeX kernels; the samples are trial 0 of an
    # upsilon = 1.5 case at seed 31415.  Without --trace the outer chain
    # is pruned, and stdout and the coefficients keep their bytes.
    ex = sphere_reg.experiments
    case = ex.ExperimentCase(name="solve", symbol="geometric(1.48)", upsilon=1.5, M=M)
    _, _, noisy = ex.simulate_problem(case, ex.trial_seed(31415, 0))
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), ex.canonical_rule(M, 1.0), noisy)
    coeffs, trace = tmp_path / "coeffs.csv", tmp_path / "trace.csv"
    solve = ["solve", str(path), "--M", str(M), "--symbol", "geometric(1.48)", "--auto"]
    code = main(solve + ["--trace", str(trace), "-o", str(coeffs), *flags])
    assert code == EXIT_OK
    outputs = (capsys.readouterr().out.encode(), coeffs.read_bytes(), trace.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == digests
    coeffs.unlink()
    assert main(solve + ["-o", str(coeffs), *flags]) == EXIT_OK
    outputs = (capsys.readouterr().out.encode(), coeffs.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == digests[:2]


class TestCoeffsIO:
    def test_round_trip(self, tmp_path, rng):
        c = HarmonicCoefficients(M=4, radius=1.0, values=rng.standard_normal(25))
        path = tmp_path / "c.csv"
        write_coeffs_csv(c, str(path))
        np.testing.assert_array_equal(read_coeffs(path), c.values)


# Writer loops, one f-string per line: the byte oracles of the CSV writers.


def _fmt(x):
    return format(float(x), ".17g")


def loop_rule_csv(rule):
    lines = ["x,y,z,weight"]
    for p, w in zip(rule.points, rule.weights):
        lines.append(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(w)}")
    return "\n".join(lines) + "\n"


def loop_samples_csv(rule, samples):
    lines = ["x,y,z,value"]
    for p, v in zip(rule.points, samples):
        lines.append(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def loop_coeffs_csv(coeffs):
    lines = ["k,j,value"]
    for k in range(coeffs.M + 1):
        for j in range(1, 2 * k + 2):
            lines.append(f"{k},{j},{_fmt(coeffs.values[k * k + j - 1])}")
    return "\n".join(lines) + "\n"


def loop_trace_csv(trace):
    lines = ["alpha,chosen_lambda,inner_min_diff,outer_diff"]
    for rec in trace:
        lines.append(
            f"{_fmt(rec.alpha)},{_fmt(rec.chosen_lambda)},"
            f"{_fmt(rec.inner_min_diff)},{_fmt(rec.outer_diff)}"
        )
    return "\n".join(lines) + "\n"


def loop_results_csv(case_name, results, summary):
    lines = ["case,trial,method,relative_error,alpha,lambda"]
    for r in results:
        lines.append(
            f"{case_name},{r.trial},{r.method},{_fmt(r.relative_error)},"
            f"{_fmt(r.chosen_alpha)},{_fmt(r.chosen_lambda)}"
        )
    lines.append(
        f"# leader_following case={summary.case} "
        f"two_step_median={_fmt(summary.median_two_step)} "
        f"smoothing_median={_fmt(summary.median_smoothing)} "
        f"collocation_median={_fmt(summary.median_collocation)} "
        f"ratio={_fmt(summary.ratio)} "
        f"follows_leader={'true' if summary.follows_leader else 'false'}"
    )
    return "\n".join(lines) + "\n"


def awkward_values(rng, n):
    """Random doubles over +-1e+-300 led by signed zero, subnormals and 1e308."""
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1, 1 / 3]
    exponents = rng.uniform(-300.0, 300.0, n)
    spread = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0**exponents
    return np.concatenate((special, spread))[:n]


class TestWriterBytes:
    @pytest.mark.parametrize("M", [0, 56])
    def test_rule(self, tmp_path, M):
        rule = sphere_rule(M, 1.7)
        path = tmp_path / "rule.csv"
        write_rule_csv(rule, str(path))
        assert path.read_bytes() == loop_rule_csv(rule).encode()

    def test_samples(self, tmp_path, rng):
        rule = sphere_rule(31, 1.7)
        samples = awkward_values(rng, rule.n_points)
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), rule, samples)
        assert path.read_bytes() == loop_samples_csv(rule, samples).encode()

    def test_coefficients(self, tmp_path, rng):
        c = HarmonicCoefficients(M=56, radius=1.0, values=awkward_values(rng, 57 * 57))
        path = tmp_path / "c.csv"
        write_coeffs_csv(c, str(path))
        assert path.read_bytes() == loop_coeffs_csv(c).encode()

    def test_trace(self, tmp_path, rng):
        values = awkward_values(rng, 60).reshape(4, 15)
        trace = [
            TraceRecord(alpha=a, chosen_lambda=lam, inner_min_diff=d, outer_diff=o)
            for a, lam, d, o in zip(*values)
        ]
        trace[0] = TraceRecord(1e-5, 0.0, math.nan, math.nan)
        path = tmp_path / "t.csv"
        write_trace_csv(str(path), trace)
        assert path.read_bytes() == loop_trace_csv(trace).encode()

    @pytest.mark.parametrize("follows", [True, False])
    def test_results(self, tmp_path, rng, follows):
        errors, alphas, lambdas = np.abs(awkward_values(rng, 45)).reshape(3, 15)
        errors[-1] = math.inf
        results = [
            TrialResult(t // 3, METHODS[t % 3], e, a, lam)
            for t, (e, a, lam) in enumerate(zip(errors, alphas, lambdas))
        ]
        results.append(TrialResult(5, METHODS[0], 1 / 3, 0.0, 0.0))
        summary = LeaderSummary("fig1x", 1e-300, 0.1, 5e-324, math.inf, follows)
        path = tmp_path / "results.csv"
        write_results_csv(str(path), "fig1x", results, summary)
        assert path.read_bytes() == loop_results_csv("fig1x", results, summary).encode()


class TestConfig:
    def test_parse_basics(self):
        cfg = parse_config("# comment\n a = 1 \n\nb = two words # trailing\n")
        assert cfg == {"a": "1", "b": "two words"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("just a line\n")


def write_config(tmp_path, body, name="case.config"):
    path = tmp_path / name
    path.write_text(body)
    return path


def mini_config(tmp_path, out_name="results.csv", extra=""):
    return write_config(
        tmp_path,
        "case = fig1a\n"
        "M = 6\n"
        "trials = 2\n"
        "seed = 9\n"
        "alpha_count = 8\n"
        "alpha_factor = 3.0\n"
        "lambda_count = 8\n"
        "lambda_factor = 3.0\n"
        f"output = {tmp_path / out_name}\n" + extra,
        name=out_name + ".config",
    )


class TestExperimentCommand:
    def test_runs_and_writes_rows(self, tmp_path):
        cfg = mini_config(tmp_path, extra=f"plot = {tmp_path / 'plot.svg'}\n")
        assert main(["experiment", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "case,trial,method,relative_error,alpha,lambda"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == 6  # 3 methods x 2 trials
        comments = [ln for ln in lines if ln.startswith("#")]
        assert len(comments) == 1 and "leader_following" in comments[0]
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") == 6

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = mini_config(tmp_path, out_name="a.csv")
        cfg_b = mini_config(tmp_path, out_name="b.csv")
        assert main(["experiment", str(cfg_a)]) == EXIT_OK
        assert main(["experiment", str(cfg_b)]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_zero_trials_names_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"case = fig1a\ntrials = 0\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert "trials" in capsys.readouterr().err

    def test_negative_seed_names_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"case = fig1a\nseed = -1\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "seed must be nonnegative" in line
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field", ["epsilon", "upsilon"])
    def test_infinite_noise_or_smoothness_names_field(self, tmp_path, capsys, field):
        cfg = write_config(
            tmp_path,
            f"case = fig1a\n{field} = inf\noutput = {tmp_path / 'r.csv'}\n",
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"case = fig1a\nbogus = 1\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("case = fig1a\nalpha_zero = maybe\n{out}",
             "config field 'alpha_zero': expected a boolean, got 'maybe'"),
            ("case = fig1a\n= 3\n{out}", "config line 2: empty key or value"),
            ("case = fig1a\nseed =\n{out}", "config line 2: empty key or value"),
            ("case = fig1a\nlambda_count = many\n{out}",
             "config field 'lambda*': invalid literal for int() with base 10: 'many'"),
            ("symbol = sst\n{out}",
             "config needs either 'case' or both 'symbol' and 'upsilon'"),
            ("case = fig1a\nM = big\n{out}", "config field 'M': expected int, got 'big'"),
            ("case = fig1a\nsymbol = sst(2)\n{out}",
             "config field 'symbol': preset 'sst' takes no parameter"),
            ("case = fig1a\n", "config field 'output': required"),
        ],
        ids=[
            "bool", "empty-key", "empty-value", "grid-count", "no-case",
            "typed-field", "symbol", "no-output",
        ],
    )
    def test_invalid_config_rejected(self, tmp_path, capsys, body, message):
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, body.format(out=f"output = {out}\n"))
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("rho = 1e200",
             "config field 'rho': rule weights must be finite, got w_0 = inf"),
            ("beta_exponent = 1e300",
             "config field 'beta_exponent': beta entries must be finite, "
             "got beta_0 = inf"),
            # The sup grid's points are off the origin, but their norms
            # underflow.
            ("R = 1e-300\nrho = 1e-300",
             "config field 'R': grid point norms underflow to 0: their squared "
             "coordinates are below the smallest double"),
        ],
        ids=["rho-huge", "beta-exponent-huge", "radii-tiny"],
    )
    def test_overflow_and_underflow_name_their_config_field(
        self, tmp_path, capsys, monkeypatch, fields, message
    ):
        # Refused before any trial, with the field that causes them.
        out = tmp_path / "r.csv"
        cfg = write_config(
            tmp_path, f"case = fig1a\nM = 2\ntrials = 2\n{fields}\noutput = {out}\n"
        )
        calls = []
        monkeypatch.setattr(sphere_reg.cli, "run_case", lambda case: calls.append(case))
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_subnormal_rule_weights_fail_the_trials(self, tmp_path, capsys):
        # The config builds the rule, whose weights are subnormal; each
        # trial's analysis refuses them, so no results are written.
        out = tmp_path / "r.csv"
        cfg = write_config(
            tmp_path,
            f"case = fig1a\nM = 2\ntrials = 2\nR = 1e-158\nrho = 1e-158\noutput = {out}\n",
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.splitlines() == [
            "error: rule weights are subnormal at rho = 1e-158"
        ]
        assert not out.exists()

    def test_zero_flags_set_the_grids(self):
        case, _, _ = config_to_case(
            parse_config("case = fig1a\nalpha_zero = no\nlambda_zero = YES\noutput = r\n")
        )
        assert not case.alpha_grid.include_zero and case.lambda_grid.include_zero

    def test_missing_config(self, tmp_path):
        assert main(["experiment", str(tmp_path / "no.config")]) == EXIT_MISSING_INPUT

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"case = fig9z\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert "fig9z" in capsys.readouterr().err

    def test_custom_case_without_preset(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "symbol = polynomial(2)\n"
            "upsilon = 1.5\n"
            "M = 5\n"
            "trials = 1\n"
            "alpha_count = 5\nalpha_factor = 4.0\n"
            "lambda_count = 5\nlambda_factor = 4.0\n"
            f"output = {tmp_path / 'r.csv'}\n",
        )
        assert main(["experiment", str(cfg)]) == EXIT_OK
        data = [
            ln
            for ln in (tmp_path / "r.csv").read_text().splitlines()[1:]
            if not ln.startswith("#")
        ]
        assert len(data) == 3
        assert data[0].startswith("custom,0,two_step,")


class TestExperimentOutputChecked:
    @pytest.mark.parametrize("key", ["output", "plot"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "file-parent"])
    def test_unwritable_path_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch, key, where
    ):
        (tmp_path / "existing").mkdir()
        (tmp_path / "afile").write_text("")
        bad = {
            "missing-directory": tmp_path / "nodir" / "x",
            "directory": tmp_path / "existing",
            "file-parent": tmp_path / "afile" / "x",
        }[where]
        paths = {"output": tmp_path / "r.csv", "plot": tmp_path / "p.svg", key: bad}
        cfg = write_config(
            tmp_path,
            f"case = fig1a\noutput = {paths['output']}\nplot = {paths['plot']}\n",
        )
        calls = []
        monkeypatch.setattr(
            sphere_reg.cli, "run_case", lambda case: calls.append(case) or []
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        # The same line a late write would have printed.
        with pytest.raises(ValidationError) as late:
            sphere_reg.cli._atomic_write(str(bad), "")
        assert line == f"error: {late.value}"
        assert list(tmp_path.rglob("*.tmp")) == []


    def test_output_and_plot_on_one_file_fail_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        # Two spellings of one file: the plot would replace the results.
        alias = f"{tmp_path}/./o.csv"
        cfg = write_config(
            tmp_path, f"case = fig1a\noutput = {tmp_path / 'o.csv'}\nplot = {alias}\n"
        )
        calls = []
        monkeypatch.setattr(
            sphere_reg.cli, "run_case", lambda case: calls.append(case) or []
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: 'output' and 'plot' name the same file: {alias}"
        assert not (tmp_path / "o.csv").exists()


class TestSolveOutputChecked:
    @staticmethod
    def solve(samples, *flags):
        return main(
            ["solve", str(samples), "--M", "4", "--symbol", "geometric(1.48)", *flags]
        )

    @pytest.mark.parametrize("key", ["-o", "--trace"])
    def test_unwritable_path_fails_before_selection(
        self, tmp_path, capsys, monkeypatch, key
    ):
        samples, _, _ = make_samples(tmp_path, M=4)
        bad = tmp_path / "nodir" / "x.csv"
        paths = {"-o": tmp_path / "c.csv", "--trace": tmp_path / "t.csv", key: bad}
        calls = []
        monkeypatch.setattr(
            sphere_reg.cli, "read_samples_csv", lambda *args: calls.append(args)
        )
        flags = ["--auto", "--trace", str(paths["--trace"]), "-o", str(paths["-o"])]
        assert self.solve(samples, *flags) == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: cannot write {bad}: No such file or directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]

    def test_output_and_trace_on_one_file_rejected(self, tmp_path, capsys, monkeypatch):
        # Two spellings of one file: the trace would replace the coefficients.
        samples, _, _ = make_samples(tmp_path, M=4)
        calls = []
        monkeypatch.setattr(
            sphere_reg.cli, "read_samples_csv", lambda *args: calls.append(args)
        )
        same, alias = tmp_path / "same.csv", f"{tmp_path}/./same.csv"
        flags = ["--auto", "--trace", alias, "-o", str(same)]
        assert self.solve(samples, *flags) == EXIT_INVALID_INPUT
        assert calls == []
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: -o and --trace name the same file: {alias}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]

    def test_trace_without_auto_rejected(self, tmp_path, capsys):
        samples, _, _ = make_samples(tmp_path, M=4)
        code = self.solve(
            samples,
            "--alpha", "0.1", "--lambda", "0.1",
            "--trace", str(tmp_path / "t.csv"),
            "-o", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: --trace needs --auto"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]


class TestPathFailures:
    """Unreadable inputs, unwritable outputs, bad configs: one error line, no .tmp."""

    @staticmethod
    def solve_args(samples, out):
        return [
            "solve", str(samples),
            "--M", "4",
            "--symbol", "geometric(1.48)",
            "--lambda", "0", "--alpha", "0",
            "-o", str(out),
        ]

    @pytest.mark.parametrize(
        "case",
        [
            "rule-to-directory",
            "rule-to-missing-directory",
            "solve-from-directory",
            "solve-to-directory",
            "solve-from-binary",
            "experiment-from-directory",
            "experiment-from-binary",
            "solve-from-missing-file",
            "experiment-overflowing-upsilon",
        ],
    )
    def test_one_error_line_and_no_temporary_file(self, tmp_path, capsys, case):
        directory = tmp_path / "existing"
        directory.mkdir()
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe")
        samples, _, _ = make_samples(tmp_path, M=4)
        # 2**2000 overflows the degree-0 decay; this once ran and failed with
        # a RuntimeWarning and a numerical failure (exit 4).
        upsilon = write_config(
            tmp_path,
            f"case = fig1a\nupsilon = 2000\nM = 6\noutput = {tmp_path / 'c.csv'}\n",
        )
        argv, code, where = {
            "rule-to-directory": (
                ["rule", "--M", "3", "-o", str(directory)],
                EXIT_INVALID_INPUT,
                directory,
            ),
            "rule-to-missing-directory": (
                ["rule", "--M", "3", "-o", str(tmp_path / "nodir" / "x.csv")],
                EXIT_INVALID_INPUT,
                tmp_path / "nodir" / "x.csv",
            ),
            "solve-from-directory": (
                self.solve_args(directory, tmp_path / "c.csv"),
                EXIT_INVALID_INPUT,
                directory,
            ),
            "solve-to-directory": (
                self.solve_args(samples, directory),
                EXIT_INVALID_INPUT,
                directory,
            ),
            "solve-from-binary": (
                self.solve_args(binary, tmp_path / "c.csv"),
                EXIT_INVALID_INPUT,
                binary,
            ),
            "experiment-from-directory": (
                ["experiment", str(directory)],
                EXIT_INVALID_INPUT,
                directory,
            ),
            "experiment-from-binary": (
                ["experiment", str(binary)],
                EXIT_INVALID_INPUT,
                binary,
            ),
            "solve-from-missing-file": (
                self.solve_args(tmp_path / "nope.csv", tmp_path / "c.csv"),
                EXIT_MISSING_INPUT,
                tmp_path / "nope.csv",
            ),
            "experiment-overflowing-upsilon": (
                ["experiment", str(upsilon)],
                EXIT_INVALID_INPUT,
                "upsilon",
            ),
        }[case]
        assert main(argv) == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")
        assert str(where) in line
        assert list(tmp_path.rglob("*.tmp")) == []
        assert not (tmp_path / "c.csv").exists()


def refuse_dense_basis(monkeypatch):
    """Make every basis_matrix the pipeline can reach raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense basis built")

    for module in (sphere_reg.harmonics, sphere_reg.selection):
        monkeypatch.setattr(module, "basis_matrix", refuse)
    # No grid or rule cached by an earlier test, whatever it holds.
    sphere_reg.selection.default_eval_grid.cache_clear()
    sphere_reg.experiments.canonical_rule.cache_clear()


class TestNoDenseBasis:
    """solve --auto and run_case make no basis_matrix call."""

    def test_solve_auto(self, tmp_path, capsys, monkeypatch):
        path, _, _ = make_samples(tmp_path, M=6, noise=0.01)
        refuse_dense_basis(monkeypatch)
        out = tmp_path / "coeffs.csv"
        code = main(
            ["solve", str(path), "--M", "6", "--symbol", "geometric(1.48)", "--auto"]
            + ["-o", str(out), "--trace", str(tmp_path / "trace.csv")]
        )
        assert code == EXIT_OK, capsys.readouterr().err
        assert np.all(np.isfinite(read_coeffs(out)))

    def test_run_case_trial(self, monkeypatch):
        refuse_dense_basis(monkeypatch)
        case = sphere_reg.experiments.case_with_overrides(
            sphere_reg.experiments.FIGURE1_CASES["fig1d"], M=6, trials=1
        )
        results = sphere_reg.experiments.run_case(case)
        assert len(results) == 3
        assert all(math.isfinite(r.relative_error) for r in results)


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        lines = out.splitlines()
        for name in ("degree-fields-M12", "blas-gemm-slices"):
            assert any(line.startswith(name) and "PASS" in line for line in lines)
        assert lines[-1] == "all 9 checks passed"

    def test_drifting_field_sums_detected(self, capsys, monkeypatch):
        # Field sums 1e-12 off the ring synthesis, as a faulty BLAS or fill
        # would give, fail the degree-fields check alone.
        degree_fields = sphere_reg.verify.EvalGrid.degree_fields
        monkeypatch.setattr(
            sphere_reg.verify.EvalGrid,
            "degree_fields",
            lambda grid, c: degree_fields(grid, c) * (1.0 + 1e-12),
        )
        assert main(["verify", "--quick"]) == EXIT_VERIFY_FAILED
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith("1 check(s) failed: degree-fields-M12")

    def test_missed_panel_rows_detected(self, capsys, monkeypatch):
        # Panels that leave the last rows out stand for panel products that
        # are not slices of the full GEMM.
        panels = sphere_reg.verify._panels
        monkeypatch.setattr(
            sphere_reg.verify, "_panels", lambda n, height: list(panels(n, height))[:-1]
        )
        assert main(["verify", "--quick"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.endswith("failed: blas-gemm-slices")
        [report] = [
            ln for ln in captured.out.splitlines() if ln.startswith("blas-gemm-slices")
        ]
        assert "FAIL" in report
        assert "near-tie picks may differ from the dense oracle" in report

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # Every rule that verify builds takes its polar weights from here.
        gauss_legendre = sphere_reg.quadrature.gauss_legendre

        def faulty_line(n):
            nodes, weights = gauss_legendre(n)
            weights = weights.copy()
            weights[0] *= 1.0 + 1e-6
            return nodes, weights

        monkeypatch.setattr(sphere_reg.quadrature, "gauss_legendre", faulty_line)
        assert main(["verify", "--quick"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        failed = line.split("failed: ", 1)[1].split(", ")
        assert any(name.startswith("cubature-gram") for name in failed)
        assert "FAIL" in captured.out
