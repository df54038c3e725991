"""Self-contained invariant suite behind the `verify` CLI subcommand.

Each check recomputes a mathematical identity the library depends on and
reports the worst deviation it saw.  The suite is deliberately independent
of pytest so a deployed installation can be sanity-checked in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collocation import CollocationParams, composite_norm_bound, two_step_solve
from .harmonics import basis_matrix, legendre_table
from .operators import (
    HarmonicCoefficients,
    _parity,
    analyze,
    apply_forward,
    symbol_preset,
    synthesize,
)
from .quadrature import gauss_legendre, sphere_rule
from .selection import _BOUND_STRIDE, _MAX_WIDTH, EvalGrid, _product_rows, _step_products
from .smoothing import PenaltyWeights, SmoothingParams, smooth, smooth_oracle


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _check_gauss_legendre() -> CheckResult:
    nodes, weights = gauss_legendre(2)
    dev = max(
        abs(nodes[0] + 1.0 / math.sqrt(3.0)),
        abs(nodes[1] - 1.0 / math.sqrt(3.0)),
        abs(weights[0] - 1.0),
        abs(weights[1] - 1.0),
    )
    nodes, weights = gauss_legendre(5)
    dev = max(dev, abs(float(weights @ nodes**8) - 2.0 / 9.0))
    for n in (1, 7, 31, 64):
        _, weights = gauss_legendre(n)
        dev = max(dev, abs(float(np.sum(weights)) - 2.0))
    passed = dev < 1e-13
    return CheckResult("gauss-legendre", passed, f"max deviation {dev:.2e}")


def _check_cubature_gram(M: int) -> CheckResult:
    rule = sphere_rule(M, 1.0)
    B = basis_matrix(M, rule.points, rule.rho)
    gram = B.T @ (rule.weights[:, None] * B)
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    passed = dev < 1e-9
    return CheckResult(
        f"cubature-gram-M{M}", passed, f"max |Gram - I| = {dev:.2e}"
    )


def _check_addition_theorem(k_max: int) -> CheckResult:
    rng = np.random.default_rng(2)
    u = _random_directions(rng, 20)
    v = _random_directions(rng, 20)
    Yu = basis_matrix(k_max, u, 1.0)
    Yv = basis_matrix(k_max, v, 1.0)
    cos_uv = np.clip(np.sum(u * v, axis=1), -1.0, 1.0)
    p = legendre_table(k_max, cos_uv)
    dev = 0.0
    for k in range(k_max + 1):
        lo, hi = k * k, (k + 1) * (k + 1)
        lhs = np.sum(Yu[:, lo:hi] * Yv[:, lo:hi], axis=1)
        rhs = (2 * k + 1) / (4.0 * math.pi) * p[k]
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    passed = dev < 1e-10
    return CheckResult(
        f"addition-theorem-k{k_max}", passed, f"max deviation {dev:.2e}"
    )


def _check_oracle_equivalence() -> CheckResult:
    rng = np.random.default_rng(3)
    rule = sphere_rule(6, 1.0)
    beta = PenaltyWeights(beta=np.arange(7, dtype=float) + 1.0)
    dev = 0.0
    for lam in (0.0, 1e-4, 0.1, 1.0):
        samples = rng.standard_normal(rule.n_points)
        params = SmoothingParams(lam=lam, beta=beta)
        closed = smooth(samples, rule, params)
        direct = smooth_oracle(samples, rule, params)
        dev = max(dev, float(np.max(np.abs(closed.values - direct.values))))
    passed = dev < 1e-8
    return CheckResult("smoothing-oracle", passed, f"max deviation {dev:.2e}")


def _limit_setup(M: int):
    rng = np.random.default_rng(4)
    rule = sphere_rule(M, 1.0)
    symbol = symbol_preset("polynomial(2)", 1.0, 1.0, M)
    beta = PenaltyWeights(beta=np.arange(M + 1, dtype=float) + 1.0)
    samples = rng.standard_normal(rule.n_points)
    return rule, symbol, beta, samples


def _check_limiting_identities() -> CheckResult:
    from .collocation import invert_regularized

    rule, symbol, beta, samples = _limit_setup(8)
    cp = CollocationParams(alpha=3e-3, symbol=symbol)
    via_two_step = two_step_solve(
        samples, rule, SmoothingParams(lam=0.0, beta=beta), cp
    )
    raw = invert_regularized(analyze(samples, rule, rule.M), cp)
    dev = float(np.max(np.abs(via_two_step.values - raw.values)))

    sp = SmoothingParams(lam=0.2, beta=beta)
    via_two_step = two_step_solve(
        samples, rule, sp, CollocationParams(alpha=0.0, symbol=symbol)
    )
    direct = invert_regularized(
        smooth(samples, rule, sp), CollocationParams(alpha=0.0, symbol=symbol)
    )
    dev = max(dev, float(np.max(np.abs(via_two_step.values - direct.values))))
    passed = dev < 1e-14
    return CheckResult("limiting-identities", passed, f"max deviation {dev:.2e}")


def _check_exact_recovery(M: int) -> CheckResult:
    rng = np.random.default_rng(5)
    rule = sphere_rule(M, 1.0)
    symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
    beta = PenaltyWeights(beta=np.ones(M + 1))
    x = HarmonicCoefficients(
        M=M, radius=1.0, values=rng.uniform(-1.0, 1.0, (M + 1) ** 2)
    )
    clean = synthesize(apply_forward(symbol, x), rule)
    sol = two_step_solve(
        clean,
        rule,
        SmoothingParams(lam=0.0, beta=beta),
        CollocationParams(alpha=0.0, symbol=symbol),
    )
    dev = float(np.max(np.abs(sol.values - x.values)) / np.max(np.abs(x.values)))
    passed = dev < 1e-8
    return CheckResult(f"exact-recovery-M{M}", passed, f"relative deviation {dev:.2e}")


def _check_norm_bound_constant() -> CheckResult:
    rule = sphere_rule(0, 1.0)
    symbol = symbol_preset("polynomial(1)", 1.0, 1.0, 0)
    sp = SmoothingParams(lam=0.0, beta=PenaltyWeights(beta=np.ones(1)))
    cp = CollocationParams(alpha=0.0, symbol=symbol)
    grid = sphere_rule(2, 1.0).points
    value = composite_norm_bound(sp, cp, rule, grid)
    dev = abs(value - 1.0)
    passed = dev < 1e-10
    return CheckResult("norm-bound-constant", passed, f"|bound - 1| = {dev:.2e}")


def _check_degree_fields(M: int) -> CheckResult:
    """The field sums that rank candidates against the synthesis that scores them.

    The row sums of EvalGrid.degree_fields, DFT products on the installed
    BLAS, against synthesize, the ring FFTs, on sphere_rule(2M, 1.3): on
    the first half of its rings, and mirrored (each ring times the degree
    parity, half a turn on) on the far rings.
    """
    rng = np.random.default_rng(7)
    rule = sphere_rule(2 * M, 1.3)
    c = HarmonicCoefficients(M=M, radius=1.3, values=rng.standard_normal((M + 1) ** 2))
    values = synthesize(c, rule).reshape(rule.M + 1, -1)
    Z = EvalGrid(rule).degree_fields(c)
    near = Z.sum(axis=1).reshape(-1, values.shape[1])
    far = np.roll((Z @ _parity(M + 1)).reshape(near.shape), rule.M + 1, axis=1)
    rings = len(near)
    dev = max(
        float(np.max(np.abs(near - values[:rings]))),
        float(np.max(np.abs(far - values[::-1][:rings]))),
    ) / float(np.max(np.abs(values)))
    passed = dev < 1e-13
    return CheckResult(f"degree-fields-M{M}", passed, f"relative deviation {dev:.2e}")


def _stacked_product(Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Z @ [rows | rows * parity].T stacked back from the sweep's products.

    Column p holds Z @ rows[p] and column len(rows) + p holds Z @ (rows[p]
    * parity), the antipodes' values: the products of
    selection._step_products, the sweep's own layout, with rows as the
    step rows and a ones row as q, which keeps their bits.  The result's
    rows are those the products run over, _product_rows(Z): a Z of a few
    rows comes back repeated.
    """
    n, index = len(rows), np.arange(len(rows))
    Z = _product_rows(Z)
    stacked = np.full((len(Z), 2 * n), np.nan)
    ones = np.ones((1, rows.shape[1]))
    for cols, products in _step_products(Z, rows, ones, np.zeros(n, int), index):
        chunk = np.r_[index[cols], n + index[cols]]
        for panel, product in products:
            stacked[panel, chunk] = product[:, : len(chunk)]
    return stacked


def _check_gemm_slices(M: int) -> CheckResult:
    """The selection's products against slices of one full GEMM.

    The pruned quasi-optimality kernel matches the dense step-row oracle bit
    for bit, near ties included, only while every product it forms equals
    the matching slice of the full matrix product; OpenBLAS keeps that for
    the products of selection._step_products, but no BLAS promises it.  The
    shapes checked are those of the default grids' step-row sweep (52
    lambdas and alphas, so 51 steps each), each step row beside its parity
    copy: bound products of 51 and 52 x 51 rows over every _BOUND_STRIDE-th
    row; round products of every chunk width, 1 to _MAX_WIDTH // 2 rows,
    over all rows; the 102-row chain of both outer passes (51 winner steps,
    then 51 lambda = 0 steps), its bound product when pruned and its
    product over all rows when traced; and the products over the rows
    gathered at round 1's peak offsets, at every chunk width: 1 to 16
    rows, 6 or fewer repeated as the sweep repeats them, and 17 to 1,100
    rows, in one panel, in several with a partial last one, and past the
    narrowest products' _PANEL_ROWS.  Products are stacked back, so a row
    their panels miss fails too.
    """
    rng = np.random.default_rng(6)
    grid = EvalGrid(sphere_rule(2 * M, 1.0))
    Z = grid.degree_fields(
        HarmonicCoefficients(M=M, radius=1.0, values=rng.standard_normal((M + 1) ** 2))
    )
    factors = rng.standard_normal((200, M + 1))
    # Column-major, so the slices below gather contiguous columns; the
    # parity copies' columns follow the factors'.
    full = np.asfortranarray(Z @ np.vstack((factors, factors * _parity(M + 1))).T)
    every, coarse = np.arange(len(Z)), np.arange(0, len(Z), _BOUND_STRIDE)
    widths = range(1, _MAX_WIDTH // 2 + 1)  # step rows in a chunk
    # (rows of Z, factor rows) of each product.
    products = [
        (coarse, np.arange(51)),
        (coarse, np.arange(52 * 51) % len(factors)),
        (coarse, np.r_[0:51, 100:151]),
        (every, np.r_[0:51, 100:151]),
        *((every, rng.permutation(len(factors))[:w]) for w in widths),
    ]
    for g in (*range(1, 18), 100, 174, 498, 1100):
        rows = np.sort(rng.choice(len(Z), g, replace=False))
        products += [(rows, rng.permutation(len(factors))[:w]) for w in widths]
    mismatched = sum(
        not np.array_equal(
            _stacked_product(Z[rows], factors[cols]),
            full[np.ix_(_product_rows(rows), np.r_[cols, len(factors) + cols])],
        )
        for rows, cols in products
    )
    passed = not mismatched
    n = len(products)
    detail = (
        f"{n} products equal slices of the full GEMM (T = {len(Z)})"
        if passed
        else f"{mismatched} of {n} products differ from slices of the full GEMM; "
        "near-tie picks may differ from the dense oracle"
    )
    return CheckResult("blas-gemm-slices", passed, detail)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run the invariant suite; quick mode uses smaller degrees."""
    gram_M = 12 if quick else 30
    addition_k = 25 if quick else 61
    recovery_M = 10 if quick else 20
    # From M = 31 on, Z has 32 or more columns, where OpenBLAS's kernel for
    # small products sums differently from its GEMM.
    slices_M = 31 if quick else 56
    fields_M = 12 if quick else 30
    return [
        _check_gauss_legendre(),
        _check_cubature_gram(gram_M),
        _check_addition_theorem(addition_k),
        _check_oracle_equivalence(),
        _check_limiting_identities(),
        _check_exact_recovery(recovery_M),
        _check_norm_bound_constant(),
        _check_degree_fields(fields_M),
        _check_gemm_slices(slices_M),
    ]
