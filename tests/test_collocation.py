import math

import numpy as np
import pytest

from sphere_reg import (
    CollocationParams,
    HarmonicCoefficients,
    PenaltyWeights,
    SmoothingParams,
    SphericalSymbol,
    ValidationError,
    analyze,
    apply_forward,
    composite_norm_bound,
    invert_regularized,
    smooth,
    sphere_rule,
    symbol_preset,
    synthesize,
    two_step_solve,
)


def unit_beta(M):
    return PenaltyWeights(beta=np.ones(M + 1))


class TestInvertRegularized:
    def test_exact_inversion_round_trip(self, rng):
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, 8)
        x = HarmonicCoefficients(M=8, radius=1.0, values=rng.standard_normal(81))
        p = apply_forward(sym, x)
        back = invert_regularized(p, CollocationParams(alpha=0.0, symbol=sym))
        np.testing.assert_allclose(back.values, x.values, rtol=1e-10, atol=1e-12)
        assert back.radius == sym.R

    def test_huge_alpha_kills_everything(self, rng):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 5)
        p = HarmonicCoefficients(M=5, radius=1.0, values=rng.standard_normal(36))
        out = invert_regularized(p, CollocationParams(alpha=1e16, symbol=sym))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_single_mode_factor(self):
        # a_2 = 1/9, alpha = 1/81: factor (1/9)/(1/81 + 1/81) = 4.5
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 4)
        p = HarmonicCoefficients(M=4, radius=1.0, values=np.zeros(25))
        p.values[2 * 2 + 1 - 1] = 1.0  # (k, j) = (2, 1)
        out = invert_regularized(p, CollocationParams(alpha=1.0 / 81.0, symbol=sym))
        assert out.values[2 * 2 + 1 - 1] == pytest.approx(4.5, abs=1e-12)

    def test_radius_mismatch(self):
        sym = symbol_preset("sst", 1.0, 2.0, 3)
        p = HarmonicCoefficients(M=3, radius=1.5, values=np.zeros(16))
        with pytest.raises(ValidationError):
            invert_regularized(p, CollocationParams(alpha=0.0, symbol=sym))

    def test_negative_alpha_rejected(self):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            CollocationParams(alpha=-1.0, symbol=sym)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 3)
        with pytest.raises(ValidationError, match="finite"):
            CollocationParams(alpha=alpha, symbol=sym)


class TestTwoStepSolve:
    def test_is_the_composition(self, rng):
        M = 7
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, M)
        sp = SmoothingParams(lam=0.3, beta=unit_beta(M))
        cp = CollocationParams(alpha=1e-3, symbol=sym)
        samples = rng.standard_normal(rule.n_points)
        combined = two_step_solve(samples, rule, sp, cp)
        composed = invert_regularized(smooth(samples, rule, sp), cp)
        np.testing.assert_array_equal(combined.values, composed.values)

    def test_lambda_zero_is_raw_collocation(self, rng):
        M = 6
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
        cp = CollocationParams(alpha=2e-2, symbol=sym)
        samples = rng.standard_normal(rule.n_points)
        via_two_step = two_step_solve(
            samples, rule, SmoothingParams(lam=0.0, beta=unit_beta(M)), cp
        )
        raw = invert_regularized(analyze(samples, rule, M), cp)
        np.testing.assert_array_equal(via_two_step.values, raw.values)

    def test_alpha_zero_is_presmoothed_inversion(self, rng):
        M = 6
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, M)
        sp = SmoothingParams(lam=0.4, beta=unit_beta(M))
        samples = rng.standard_normal(rule.n_points)
        via_two_step = two_step_solve(
            samples, rule, sp, CollocationParams(alpha=0.0, symbol=sym)
        )
        direct = invert_regularized(
            smooth(samples, rule, sp), CollocationParams(alpha=0.0, symbol=sym)
        )
        np.testing.assert_array_equal(via_two_step.values, direct.values)

    def test_exact_recovery_noise_free(self, rng):
        M = 10
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
        x = HarmonicCoefficients(M=M, radius=1.0, values=rng.uniform(-1, 1, 121))
        clean = synthesize(apply_forward(sym, x), rule.points)
        sol = two_step_solve(
            clean,
            rule,
            SmoothingParams(lam=0.0, beta=unit_beta(M)),
            CollocationParams(alpha=0.0, symbol=sym),
        )
        np.testing.assert_allclose(sol.values, x.values, atol=1e-9)

    def test_noise_damping_in_both_parameters(self, rng):
        M = 5
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, M)
        beta = PenaltyWeights(beta=np.arange(M + 1, dtype=float) + 1.0)
        samples = rng.standard_normal(rule.n_points)
        grid = [0.0, 1e-4, 1e-2, 1.0, 100.0]

        norms = [
            np.linalg.norm(
                two_step_solve(
                    samples,
                    rule,
                    SmoothingParams(lam, beta),
                    CollocationParams(1e-3, sym),
                ).values
            )
            for lam in grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

        norms = [
            np.linalg.norm(
                two_step_solve(
                    samples,
                    rule,
                    SmoothingParams(0.1, beta),
                    CollocationParams(alpha, sym),
                ).values
            )
            for alpha in grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestCompositeNormBound:
    def test_constant_mode_exact_value(self):
        rule = sphere_rule(0, 1.0)
        sym = symbol_preset("polynomial(1)", 1.0, 1.0, 0)
        sp = SmoothingParams(lam=0.0, beta=unit_beta(0))
        cp = CollocationParams(alpha=0.0, symbol=sym)
        grid = sphere_rule(2, 1.0).points
        assert composite_norm_bound(sp, cp, rule, grid) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_huge_alpha_sends_bound_to_zero(self):
        M = 3
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, M)
        sp = SmoothingParams(lam=0.0, beta=unit_beta(M))
        grid = sphere_rule(2 * M, 1.0).points
        bound = composite_norm_bound(
            sp, CollocationParams(alpha=1e18, symbol=sym), rule, grid
        )
        assert bound < 1e-15

    def test_grid_refinement_oracle(self):
        M = 3
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, M)
        sp = SmoothingParams(lam=0.05, beta=unit_beta(M))
        cp = CollocationParams(alpha=0.01, symbol=sym)
        coarse = composite_norm_bound(sp, cp, rule, sphere_rule(2 * M, 1.0).points)
        fine = composite_norm_bound(sp, cp, rule, sphere_rule(20 * M, 1.0).points)
        assert coarse <= fine * (1.0 + 1e-12)
        assert abs(fine - coarse) <= 0.02 * fine

    def test_monotone_in_each_parameter(self):
        M = 4
        rule = sphere_rule(M, 1.0)
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
        beta = PenaltyWeights(beta=np.arange(M + 1, dtype=float) + 1.0)
        grid = sphere_rule(2 * M, 1.0).points
        params = [0.0, 1e-6, 1e-4, 1e-2, 1.0, 1e2]

        for lam in (0.0, 1e-3, 1.0):
            bounds = [
                composite_norm_bound(
                    SmoothingParams(lam, beta),
                    CollocationParams(alpha, sym),
                    rule,
                    grid,
                )
                for alpha in params
            ]
            assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(bounds, bounds[1:]))

        for alpha in (0.0, 1e-3, 1.0):
            bounds = [
                composite_norm_bound(
                    SmoothingParams(lam, beta),
                    CollocationParams(alpha, sym),
                    rule,
                    grid,
                )
                for lam in params
            ]
            assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(bounds, bounds[1:]))

    def test_empty_grid_rejected(self):
        rule = sphere_rule(1, 1.0)
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 1)
        sp = SmoothingParams(lam=0.0, beta=unit_beta(1))
        cp = CollocationParams(alpha=0.0, symbol=sym)
        with pytest.raises(ValidationError):
            composite_norm_bound(sp, cp, rule, np.empty((0, 3)))

    def test_solution_sphere_prefactor(self):
        # R < rho: the bound carries the 1/(R rho) prefactor of the estimate
        M = 0
        R, rho = 1.0, 2.0
        rule = sphere_rule(M, rho)
        sym = SphericalSymbol(a=np.array([1.0]), R=R, rho=rho, name="unit")
        sp = SmoothingParams(lam=0.0, beta=unit_beta(0))
        cp = CollocationParams(alpha=0.0, symbol=sym)
        grid = sphere_rule(2, R).points
        # sum_i w_i = 4 pi rho^2, times 1/(4 pi (R rho)) gives rho / R
        assert composite_norm_bound(sp, cp, rule, grid) == pytest.approx(
            rho / R, abs=1e-10
        )
