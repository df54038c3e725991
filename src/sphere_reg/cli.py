"""Command-line front end and all file input/output.

Subcommands: ``experiment`` (run a configured case, write results CSV and
an optional SVG strip plot), ``solve`` (solve one problem from a sample
file), ``rule`` (dump a cubature rule), ``verify`` (run the embedded
invariant suite).  Exit codes: 0 ok, 1 verification failure, 2 missing
input, 3 invalid input (an unreadable input or unwritable output path
too), 4 numerical failure (a trial worker process that dies too).  Every
failure prints a single diagnostic line starting with ``error:`` to
stderr.

Every CSV goes through one writer, ``_write_csv``.  Numeric fields are
written as ``%.17g``, which round-trips IEEE doubles exactly and keeps
output diffable; files are written to a temporary name and renamed into
place.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from itertools import chain

import numpy as np

from .collocation import CollocationParams, two_step_solve
from .errors import NumericalError, ValidationError
from .experiments import (
    FIGURE1_CASES,
    STANDARD_GRID,
    ExperimentCase,
    LeaderSummary,
    TrialResult,
    canonical_rule,
    case_with_overrides,
    leader_following_summary,
    penalty_from_symbol,
    run_case,
)
from .harmonics import _off_tolerance
from .operators import HarmonicCoefficients, check_rule_weights, symbol_preset
from .quadrature import CubatureRule, sphere_rule
from .selection import ParameterGrid, default_eval_grid, select_two_step
from .smoothing import SmoothingParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MISSING_INPUT = 2
EXIT_INVALID_INPUT = 3
EXIT_NUMERICAL = 4


def _atomic_write(path: str, chunks) -> None:
    """Write the text chunks to path.tmp and rename it; on failure remove path.tmp."""
    tmp = path + ".tmp"
    opened = False
    try:
        with open(tmp, "w", newline="") as fh:
            opened = True
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path: str) -> None:
    """Fail now, as _atomic_write would later, if path cannot take a file."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError(f"cannot write {path}: {os.strerror(code)}")


def _check_outputs(paths: dict[str, str | None]) -> None:
    """Fail now if two named output paths are one file or one cannot take a file."""
    seen: dict[str, str] = {}
    for name, path in paths.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"{seen[real]} and {name} name the same file: {path}")
        seen[real] = name
        _check_writable(path)


def _read_text(path: str) -> str:
    """Contents of a text input file; undecodable bytes are invalid input."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not a text file (byte {exc.start}: {exc.reason})"
        ) from None


# ---------------------------------------------------------------------------
# CSV formats


_FOUR = "%.17g,%.17g,%.17g,%.17g"


def _write_csv(path: str, header: str, row_format: str, rows, *footer: str) -> None:
    """Stream the header, row_format % row for each row, then the footer lines."""
    line = row_format + "\n"
    body = (line % row for row in rows)
    _atomic_write(path, chain([header + "\n"], body, (f + "\n" for f in footer)))


def write_rule_csv(rule: CubatureRule, path: str) -> None:
    rows = zip(*rule.points.T.tolist(), rule.weights.tolist())
    _write_csv(path, "x,y,z,weight", _FOUR, rows)


def write_samples_csv(path: str, rule: CubatureRule, samples: np.ndarray) -> None:
    rows = zip(*rule.points.T.tolist(), rule.samples(samples).tolist())
    _write_csv(path, "x,y,z,value", _FOUR, rows)


def read_samples_csv(path: str, rule: CubatureRule) -> np.ndarray:
    """Read a sample file: finite values on the rule's points, in rule order.

    A file of exactly one header and the rule's rows, none empty, is
    parsed in one vectorized call (np.loadtxt skips empty lines).  Any
    other file, or one whose parse or checks fail, goes through the line
    scan (_scan_samples), which names its first failing line; both give
    the values of Python's float().
    """
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "x,y,z,value":
        raise ValidationError(f"{path}: line 1: expected header 'x,y,z,value'")
    table = None
    if len(lines) == rule.n_points + 1 and "" not in lines:
        try:
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (rule.n_points, 4) or _first_bad_row(table, rule):
        table = _scan_samples(path, lines, rule)
    return table[:, 3].copy()


def _first_bad_row(table: np.ndarray, rule: CubatureRule) -> tuple[int, str] | None:
    """(index, reason) of the first row off the rule's points or with a non-finite value.

    A point mismatch on a row comes before its non-finite value.
    """
    points = rule.points[: len(table)]
    off_rule = _off_tolerance(table[:, :3], points, rule.rho).any(axis=1)
    bad = np.flatnonzero(off_rule | ~np.isfinite(table[:, 3]))
    if not bad.size:
        return None
    i = int(bad[0])
    if off_rule[i]:
        return i, f"point does not match the canonical rule point {i}"
    return i, "non-finite sample value"


def _scan_samples(path: str, lines: list[str], rule: CubatureRule) -> np.ndarray:
    """The (n_points, 4) table of a sample file's lines, scanned line by line.

    Raises ValidationError naming the earliest failing file line: a wrong
    row count, a malformed row, a point off the rule or a non-finite value.
    """
    # (file line number, text) of every nonblank data row.
    rows = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(rows) != rule.n_points:
        raise ValidationError(
            f"{path}: expected {rule.n_points} data rows for this rule, "
            f"got {len(rows)}"
        )
    # Parse up to the first malformed row, then check the parsed rows' points
    # and values in one pass.
    parsed, malformed = [], None
    for lineno, ln in rows:
        parts = ln.split(",")
        if len(parts) != 4:
            malformed = (lineno, f"expected 4 fields, got {len(parts)}")
            break
        try:
            parsed.append([float(p) for p in parts])
        except ValueError:
            malformed = (lineno, "non-numeric field")
            break
    table = np.array(parsed, dtype=float).reshape(-1, 4)
    bad = _first_bad_row(table, rule)
    if bad is not None:
        raise ValidationError(f"{path}: line {rows[bad[0]][0]}: {bad[1]}")
    if malformed is not None:
        raise ValidationError(f"{path}: line {malformed[0]}: {malformed[1]}")
    return table


def write_coeffs_csv(coeffs: HarmonicCoefficients, path: str) -> None:
    degrees = np.arange(coeffs.M + 1)
    k = np.repeat(degrees, 2 * degrees + 1)
    j = np.arange(k.size) - k * k + 1
    rows = zip(k.tolist(), j.tolist(), coeffs.values.tolist())
    _write_csv(path, "k,j,value", "%d,%d,%.17g", rows)


def write_results_csv(
    path: str,
    case_name: str,
    results: list[TrialResult],
    summary: LeaderSummary,
) -> None:
    rows = (
        (case_name, r.trial, r.method, r.relative_error, r.chosen_alpha, r.chosen_lambda)
        for r in results
    )
    footer = (
        "# leader_following case=%s two_step_median=%.17g smoothing_median=%.17g "
        "collocation_median=%.17g ratio=%.17g follows_leader=%s"
    ) % (
        summary.case,
        summary.median_two_step,
        summary.median_smoothing,
        summary.median_collocation,
        summary.ratio,
        "true" if summary.follows_leader else "false",
    )
    header = "case,trial,method,relative_error,alpha,lambda"
    _write_csv(path, header, "%s,%s,%s,%.17g,%.17g,%.17g", rows, footer)


def write_trace_csv(path: str, trace) -> None:
    rows = [(r.alpha, r.chosen_lambda, r.inner_min_diff, r.outer_diff) for r in trace]
    _write_csv(path, "alpha,chosen_lambda,inner_min_diff,outer_diff", _FOUR, rows)


# ---------------------------------------------------------------------------
# Config files


_CASE_FIELDS = {
    "symbol": str,
    "upsilon": float,
    "beta_exponent": float,
    "epsilon": float,
    "M": int,
    "R": float,
    "rho": float,
    "trials": int,
    "seed": int,
}

def _grid_keys(prefix: str) -> tuple[str, str, str, str]:
    return (f"{prefix}0", f"{prefix}_factor", f"{prefix}_count", f"{prefix}_zero")


def parse_config(text: str) -> dict[str, str]:
    """Parse the flat `key = value` config grammar."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"config line {lineno}: empty key or value")
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValidationError(f"config field '{key}': expected a boolean, got {value!r}")


def _config_grid(cfg: dict, prefix: str, default: ParameterGrid) -> ParameterGrid:
    base_key, factor_key, count_key, zero_key = _grid_keys(prefix)
    if not any(k in cfg for k in _grid_keys(prefix)):
        return default
    try:
        base = float(cfg.get(base_key, default.base))
        factor = float(cfg.get(factor_key, default.factor))
        count = int(cfg.get(count_key, default.count))
    except ValueError as exc:
        raise ValidationError(f"config field '{prefix}*': {exc}") from None
    zero = (
        _parse_bool(zero_key, cfg[zero_key])
        if zero_key in cfg
        else default.include_zero
    )
    try:
        return ParameterGrid(base=base, factor=factor, count=count, include_zero=zero)
    except ValidationError as exc:
        raise ValidationError(f"config field '{prefix}*': {exc}") from None


def config_to_case(cfg: dict[str, str]) -> tuple[ExperimentCase, str, str | None]:
    """Build the experiment case plus output paths from parsed config."""
    known = (
        {"case", "output", "plot"}
        | set(_CASE_FIELDS)
        | set(_grid_keys("alpha"))
        | set(_grid_keys("lambda"))
    )
    for key in cfg:
        if key not in known:
            raise ValidationError(f"config field '{key}': unknown key")

    if "case" in cfg:
        name = cfg["case"]
        if name not in FIGURE1_CASES:
            raise ValidationError(
                f"config field 'case': unknown preset {name!r} "
                f"(have {', '.join(sorted(FIGURE1_CASES))})"
            )
        case = FIGURE1_CASES[name]
    else:
        if "symbol" not in cfg or "upsilon" not in cfg:
            raise ValidationError(
                "config needs either 'case' or both 'symbol' and 'upsilon'"
            )
        case = ExperimentCase(name="custom", symbol=cfg["symbol"], upsilon=1.0)

    overrides = {}
    for key, typ in _CASE_FIELDS.items():
        if key in cfg:
            try:
                overrides[key] = typ(cfg[key])
            except ValueError:
                raise ValidationError(
                    f"config field '{key}': expected {typ.__name__}, "
                    f"got {cfg[key]!r}"
                ) from None
    overrides["alpha_grid"] = _config_grid(cfg, "alpha", case.alpha_grid)
    overrides["lambda_grid"] = _config_grid(cfg, "lambda", case.lambda_grid)
    try:
        case = case_with_overrides(case, **overrides)
    except ValidationError as exc:
        raise ValidationError(f"config: {exc}") from None
    # What a trial builds and checks from each field, in a trial's order, so
    # that an overflow or underflow names the field that caused it.
    builds = [
        ("symbol", case.build_symbol),
        ("beta_exponent",
         lambda: penalty_from_symbol(case.build_symbol(), case.beta_exponent)),
        ("rho", lambda: canonical_rule(case.M, case.rho)),
        ("R", lambda: default_eval_grid(case.M, case.R)),
        ("rho", lambda: check_rule_weights(canonical_rule(case.M, case.rho))),
    ]
    for key, build in builds:
        try:
            build()
        except ValidationError as exc:
            raise ValidationError(f"config field '{key}': {exc}") from None

    if "output" not in cfg:
        raise ValidationError("config field 'output': required")
    return case, cfg["output"], cfg.get("plot")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_experiment(args) -> int:
    case, output, plot = config_to_case(parse_config(_read_text(args.config)))
    _check_outputs({"'output'": output, "'plot'": plot})
    results = run_case(case)
    summary = leader_following_summary(case.name, results)
    write_results_csv(output, case.name, results, summary)
    if plot is not None:
        # Imported here and in cmd_verify: solve needs neither module.
        from .figures import strip_plot_svg

        _atomic_write(plot, [strip_plot_svg(case.name, results)])
    print(
        f"{case.name}: {case.trials} trials, "
        f"two-step median {summary.median_two_step:.4f}, "
        f"best single median "
        f"{min(summary.median_smoothing, summary.median_collocation):.4f}, "
        f"follows leader: {'yes' if summary.follows_leader else 'no'}"
    )
    return EXIT_OK


def _solve_grid(args, name: str) -> ParameterGrid:
    """The grid of --{name}0, --{name}-factor and --{name}-count; errors name it."""
    try:
        return ParameterGrid(
            base=getattr(args, f"{name}0"),
            factor=getattr(args, f"{name}_factor"),
            count=getattr(args, f"{name}_count"),
            include_zero=not args.no_zero,
        )
    except ValidationError as exc:
        raise ValidationError(f"{name} grid: {exc}") from None


def cmd_solve(args) -> int:
    if args.trace is not None and not args.auto:
        raise ValidationError("--trace needs --auto")
    if args.auto:
        grids = _solve_grid(args, "alpha"), _solve_grid(args, "lambda")
    elif args.alpha is None or args.lam is None:
        raise ValidationError("either pass --auto or both --alpha and --lambda")
    _check_outputs({"-o": args.output, "--trace": args.trace})
    rule = canonical_rule(args.M, args.rho)
    symbol = symbol_preset(args.symbol, args.R, args.rho, args.M)
    beta = penalty_from_symbol(symbol, args.beta_exponent)
    if not args.auto:
        params = (
            SmoothingParams(lam=args.lam, beta=beta),
            CollocationParams(alpha=args.alpha, symbol=symbol),
        )
    samples = read_samples_csv(args.samples, rule)

    if args.auto:
        chosen = select_two_step(
            samples, rule, symbol, beta, *grids, default_eval_grid(args.M, args.R),
            trace=args.trace is not None,
        )
        solution = chosen.solution
        print("selected alpha = %.17g, lambda = %.17g" % (chosen.alpha, chosen.lam))
        if args.trace is not None:
            write_trace_csv(args.trace, chosen.trace)
    else:
        solution = two_step_solve(samples, rule, *params)
    write_coeffs_csv(solution, args.output)
    return EXIT_OK


def cmd_rule(args) -> int:
    write_rule_csv(sphere_rule(args.M, args.rho), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks

    checks = run_checks(quick=args.quick)
    width = max(len(c.name) for c in checks)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}  {c.detail}")
    if failed:
        print(f"error: {len(failed)} check(s) failed: "
              f"{', '.join(c.name for c in failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the invalid-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphere-reg",
        description="Two-parameter regularization of spherical inverse problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_exp = sub.add_parser("experiment", help="run a configured experiment case")
    p_exp.add_argument("config", help="flat key = value configuration file")
    p_exp.set_defaults(func=cmd_experiment)

    p_solve = sub.add_parser("solve", help="solve one problem from a sample file")
    p_solve.add_argument("samples", help="CSV of x,y,z,value rows on the rule points")
    p_solve.add_argument("--M", type=int, required=True, help="truncation degree")
    p_solve.add_argument("--rho", type=float, default=1.0, help="data sphere radius")
    p_solve.add_argument("--R", type=float, default=1.0, help="solution sphere radius")
    p_solve.add_argument(
        "--symbol",
        required=True,
        help="symbol preset: sst, sgg, geometric(q), polynomial(s)",
    )
    p_solve.add_argument(
        "--beta-exponent",
        type=float,
        default=0.0,
        help="s in the penalty rule beta_k^2 = (k+1/2)^s / a_k",
    )
    p_solve.add_argument("--alpha", type=float, help="inversion parameter")
    p_solve.add_argument(
        "--lambda", dest="lam", type=float, help="smoothing parameter"
    )
    p_solve.add_argument(
        "--auto",
        action="store_true",
        help="choose alpha and lambda by nested quasi-optimality",
    )
    for name in ("alpha", "lambda"):
        p_solve.add_argument(
            f"--{name}0",
            type=float,
            default=STANDARD_GRID.base,
            help=f"smallest positive {name} of the --auto grid (default %(default)s)",
        )
        p_solve.add_argument(
            f"--{name}-factor",
            type=float,
            default=STANDARD_GRID.factor,
            help=f"ratio of consecutive {name} values (default %(default)s)",
        )
        p_solve.add_argument(
            f"--{name}-count",
            type=int,
            default=STANDARD_GRID.count,
            help=f"{name}0 * factor^i for i = 0..count, after a 0 unless --no-zero "
            "(default %(default)s)",
        )
    p_solve.add_argument(
        "--no-zero",
        action="store_true",
        help="do not prepend 0 to the parameter grids",
    )
    p_solve.add_argument("--trace", help="write the per-alpha selection trace CSV")
    p_solve.add_argument("-o", "--output", required=True, help="coefficient CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_rule = sub.add_parser("rule", help="write a cubature rule as CSV")
    p_rule.add_argument("--M", type=int, required=True)
    p_rule.add_argument("--rho", type=float, default=1.0)
    p_rule.add_argument("-o", "--output", required=True)
    p_rule.set_defaults(func=cmd_rule)

    p_verify = sub.add_parser("verify", help="run the embedded invariant suite")
    p_verify.add_argument(
        "--quick", action="store_true", help="smaller degrees, finishes in seconds"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: missing input file: {name}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
