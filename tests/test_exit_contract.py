"""The `solve` and `experiment` exit-code contract, as a property of
generated invocations.

Exit 0 comes with finite outputs.  Any other run exits 3 (invalid input)
or 4 (numerical failure) with exactly one `error:` line on stderr, no
traceback, no warning and no output file.
"""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_reg import FIGURE1_CASES, ValidationError, sphere_rule
from sphere_reg.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    write_samples_csv,
)

# Values as the command line spells them: ordinary, extreme, tiny, zero,
# negative and non-finite.
NUMBERS = [
    "1", "0.5", "1.3", "2", "3.5", "1e-9", "1e-150", "1e-300", "5e-324",
    "7e4", "1e150", "1e300", "1.7976931348623157e308", "0", "-1", "nan",
    "inf", "-inf",
]
PARAMETERS = [
    "1e-300", "1e-9", "1e-5", "0.1", "1", "1e150", "1.0000000000000002",
    "1e300", "nan", "inf", "0",
]
# Sample values: a scale times standard normal draws, with some entries
# set to one special value.
SCALES = [1.0, 1e-300, 5e-324, 0.0, 1e300, 1.7976931348623157e308]
SPECIALS = [0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]


def mostly(ordinary, unusual=NUMBERS):
    """One of ordinary seven times in eight, else one of unusual."""
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(unusual if i == 0 else ordinary)
    )


symbols = mostly(
    ["sst", "sgg", "geometric(1.48)", "polynomial(2)"],
    ["bogus", "sst(2)"]
    + [f"{family}({p})" for family in ("geometric", "polynomial") for p in PARAMETERS],
)


@st.composite
def grid_flags(draw, name):
    flags = []
    if draw(st.booleans()):
        flags.append(f"--{name}0={draw(mostly(['1e-300', '1e-9', '1e-5', '1e150']))}")
    if draw(st.booleans()):
        factor = draw(mostly(["1.0000000000000002", "1.25", "10"]))
        flags.append(f"--{name}-factor={factor}")
    if draw(st.booleans()):
        count = draw(mostly(["1", "3", "60"], ["0", "-1"]))
        flags.append(f"--{name}-count={count}")
    return flags


@st.composite
def invocations(draw):
    """(argv without paths, M and rho of the sample file, its values, wants a trace)."""
    M = draw(st.integers(0, 5))
    rho, R = draw(mostly(["1", "2", "3.5", "7e4"])), draw(mostly(["1", "0.5"]))
    argv = [f"--M={M}", f"--rho={rho}", f"--R={R}", f"--symbol={draw(symbols)}"]
    if draw(st.booleans()):
        argv.append(f"--beta-exponent={draw(mostly(['-3', '0', '1', '50']))}")
    auto = draw(st.booleans())
    trace = auto and draw(st.booleans())
    if auto:
        argv += ["--auto", *draw(grid_flags("alpha")), *draw(grid_flags("lambda"))]
        if draw(st.booleans()):
            argv.append("--no-zero")
    else:
        for name in ("alpha", "lambda"):
            argv.append(f"--{name}={draw(mostly(['0', '1e-5', '0.1', '1e300']))}")
    file_M = M if draw(st.integers(0, 9)) else M + 1
    n = 2 * (file_M + 1) ** 2
    draws = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    with np.errstate(over="ignore"):  # the largest scale overflows on purpose
        values = draw(mostly([1.0], SCALES)) * draws
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        values[i] = draw(st.sampled_from(SPECIALS))
    return argv, file_M, rho, values, trace


def read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invocations())
def test_solve_exits_0_with_finite_outputs_or_3_or_4_with_one_error_line(case):
    argv, file_M, rho, values, trace = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            rule = sphere_rule(file_M, float(rho))
        except ValidationError:  # the command refuses the radius too
            rule = sphere_rule(file_M, 1.0)
        samples = tmp / "samples.csv"
        write_samples_csv(str(samples), rule, values)
        coeffs, trace_path = tmp / "coeffs.csv", tmp / "trace.csv"
        argv = ["solve", str(samples), *argv, "-o", str(coeffs)]
        if trace:
            argv += ["--trace", str(trace_path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert not caught, [str(w.message) for w in caught]
        err_lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            assert err_lines == []
            assert np.all(np.isfinite(read_table(coeffs)))
            if trace:
                # The first alpha has no predecessor: its outer_diff is NaN.
                table = read_table(trace_path)
                assert np.isnan(table[0, 3])
                table[0, 3] = 0.0
                assert np.all(np.isfinite(table))
            if "--auto" in argv:
                picked = re.fullmatch(
                    r"selected alpha = (\S+), lambda = (\S+)\n", out.getvalue()
                )
                assert all(math.isfinite(float(v)) for v in picked.groups())
            else:
                assert out.getvalue() == ""
        else:
            assert code in (EXIT_INVALID_INPUT, EXIT_NUMERICAL), err.getvalue()
            assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
            assert sorted(p.name for p in tmp.iterdir()) == ["samples.csv"]


# Config values: (ordinary, unusual) per key of a case.
CASE_VALUES = {
    "epsilon": (["0", "0.05", "0.5"], NUMBERS),
    "upsilon": (["0.5", "1.5", "3"], NUMBERS + ["1023.9", "1024"]),
    "R": (["1", "0.5"], NUMBERS),
    "rho": (["1", "2", "3.5"], NUMBERS),
    "seed": (["0", "7", "31415"], ["-1", "1.5", "x", "1e3", str(2**64), str(2**200)]),
    "beta_exponent": (["0", "1", "2"], NUMBERS + ["-3", "50"]),
}
GRID_VALUES = {
    "0": (["1e-300", "1e-9", "1e-5", "1e150"], NUMBERS),
    "_factor": (["1.0000000000000002", "1.25", "10"], NUMBERS),
    "_count": (["1", "3", "20"], ["0", "-1", "2.5", "x"]),
    "_zero": (["true", "false", "yes", "0"], ["maybe", "2"]),
}
MALFORMED = ["no equals sign", "= 1", "key =", "bogus = 1", "M = 2", "case = fig1a"]


@st.composite
def configs(draw):
    """(config text with OUT for the output directory, whether it names a plot).

    Half the configs hold only ordinary values, which give exit 0 but for
    a few combinations; in the other half each value is unusual one time
    in eight, and one line in four is malformed, unknown or repeated.
    """
    unusual = draw(st.booleans())

    def value(ordinary, odd):
        return draw(mostly(ordinary, odd) if unusual else st.sampled_from(ordinary))

    if draw(st.booleans()):
        lines = [f"case = {value(sorted(FIGURE1_CASES), ['fig1z', 'custom'])}"]
    else:
        lines = [f"symbol = {draw(symbols) if unusual else 'geometric(1.48)'}"]
        lines.append(f"upsilon = {value(*CASE_VALUES['upsilon'])}")
    lines.append(f"M = {value(['0', '1', '2', '3', '4'], ['-1', '2.5', 'x'])}")
    lines.append(f"trials = {value(['2'], ['0', '-1', '2.0', 'x'])}")
    for key, values in CASE_VALUES.items():
        if not any(line.startswith(f"{key} =") for line in lines) and draw(st.booleans()):
            lines.append(f"{key} = {value(*values)}")
    for name in ("alpha", "lambda"):
        for suffix, values in GRID_VALUES.items():
            if draw(st.integers(0, 3)) == 0:
                lines.append(f"{name}{suffix} = {value(*values)}")
    if unusual and draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(MALFORMED)))
    if not unusual or draw(st.integers(0, 15)):
        lines.append("output = OUT/results.csv")
    plot = draw(st.booleans())
    if plot:
        lines.append("plot = OUT/strip.svg  # the strip plot")
    return "\n".join(draw(st.permutations(lines))) + "\n", plot


def read_results(path: Path):
    """The (rows, 3) float fields of a results CSV and its summary's fields."""
    lines = path.read_text().splitlines()
    assert lines[0] == "case,trial,method,relative_error,alpha,lambda"
    rows = [line.split(",")[3:] for line in lines[1:-1]]
    summary = dict(f.split("=") for f in lines[-1].split()[2:])
    return np.array(rows, dtype=float), summary


@settings(derandomize=True, max_examples=300, deadline=None)
@given(configs())
def test_experiment_exits_0_with_finite_results_or_3_or_4_with_one_error_line(case):
    text, plot = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "case.config"
        config.write_text(text.replace("OUT", str(tmp)))
        out, err = io.StringIO(), io.StringIO()
        # One usable core: the trials run in this process, and no example
        # forks a pool.
        with warnings.catch_warnings(record=True) as caught, mock.patch.object(
            os, "sched_getaffinity", lambda pid: {0}, create=True
        ):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["experiment", str(config)])
        assert not caught, [str(w.message) for w in caught]
        err_lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            assert err_lines == []
            assert len(out.getvalue().splitlines()) == 1
            table, summary = read_results(tmp / "results.csv")
            assert table.shape == (6, 3) and np.all(np.isfinite(table))
            medians = [float(v) for k, v in summary.items() if k.endswith("_median")]
            assert len(medians) == 3 and all(map(math.isfinite, medians))
            ratio = float(summary["ratio"])
            assert math.isfinite(ratio) or (ratio == math.inf and min(medians[1:]) == 0)
            assert (tmp / "strip.svg").exists() == plot
        else:
            assert code in (EXIT_INVALID_INPUT, EXIT_NUMERICAL), err.getvalue()
            assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
            assert sorted(p.name for p in tmp.iterdir()) == ["case.config"]
