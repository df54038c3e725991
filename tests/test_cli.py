import math

import numpy as np
import pytest

from sphere_reg import (
    HarmonicCoefficients,
    apply_forward,
    sphere_rule,
    symbol_preset,
    synthesize,
)
from sphere_reg.cli import (
    EXIT_INVALID_INPUT,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
    parse_config,
    read_coeffs_csv,
    read_samples_csv,
    write_coeffs_csv,
    write_samples_csv,
)
from sphere_reg.errors import ValidationError


class TestRuleCommand:
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


def make_samples(tmp_path, M=8, noise=0.0, seed=3):
    rng = np.random.default_rng(seed)
    rule = sphere_rule(M, 1.0)
    symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
    x = HarmonicCoefficients(
        M=M, radius=1.0, values=rng.uniform(-1.0, 1.0, (M + 1) ** 2)
    )
    samples = synthesize(apply_forward(symbol, x), rule.points)
    if noise:
        samples = samples + noise * rng.standard_normal(rule.n_points)
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), rule, samples)
    return path, rule, x


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
        got = read_coeffs_csv(str(out), radius=1.0)
        np.testing.assert_allclose(got.values, x.values, atol=1e-9)

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
                "--symbol", "sst",
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


class TestCoeffsIO:
    def test_round_trip(self, tmp_path, rng):
        c = HarmonicCoefficients(M=4, radius=1.0, values=rng.standard_normal(25))
        path = tmp_path / "c.csv"
        write_coeffs_csv(c, str(path))
        back = read_coeffs_csv(str(path), radius=1.0)
        assert back.M == 4
        np.testing.assert_array_equal(back.values, c.values)

    def test_incomplete_triangle_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("k,j,value\n0,1,1.5\n1,1,0.5\n")
        with pytest.raises(ValidationError):
            read_coeffs_csv(str(path), radius=1.0)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("k,j,value\n0,1,1.5\n0,1,2.5\n")
        with pytest.raises(ValidationError):
            read_coeffs_csv(str(path), radius=1.0)


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"case = fig1a\nbogus = 1\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(cfg)]) == EXIT_INVALID_INPUT
        assert "bogus" in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_fault_detected(self, capsys):
        assert main(["verify", "--quick", "--inject-fault"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert "cubature-gram" in captured.err
        assert "FAIL" in captured.out
