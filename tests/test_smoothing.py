import math

import numpy as np
import pytest

from sphere_reg import (
    HarmonicCoefficients,
    PenaltyWeights,
    SmoothingParams,
    ValidationError,
    analyze,
    basis_matrix,
    smooth,
    smooth_oracle,
    sphere_rule,
    synthesize,
)
from conftest import random_directions

FOUR_PI = 4.0 * math.pi


def unit_beta(M):
    return PenaltyWeights(beta=np.ones(M + 1))


def linear_beta(M):
    return PenaltyWeights(beta=np.arange(M + 1, dtype=float) + 1.0)


def objective(samples, rule, params, coeffs):
    """The penalized functional: weighted misfit plus the kernel-space norm."""
    fitted = synthesize(coeffs, rule.points)
    misfit = float(rule.weights @ (fitted - samples) ** 2)
    b = params.beta.beta[: coeffs.M + 1]
    per_entry = np.repeat(b * b, 2 * np.arange(coeffs.M + 1) + 1)
    return misfit + params.lam * float(np.sum(per_entry * coeffs.values**2))


class TestPenaltyWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            PenaltyWeights(beta=np.array([1.0, 0.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            PenaltyWeights(beta=np.array([2.0, 1.0]))

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValidationError):
            SmoothingParams(lam=-0.1, beta=unit_beta(2))

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValidationError, match="finite"):
            SmoothingParams(lam=lam, beta=unit_beta(2))


class TestKernel:
    def test_reproducing_property(self, rng):
        # <p, K(., tau)>_HK evaluated spectrally equals p(tau)
        M = 6
        rho = 1.0
        beta = linear_beta(M)
        rule = sphere_rule(M, rho)
        p = HarmonicCoefficients(M=M, radius=rho, values=rng.standard_normal(49))
        tau = rho * random_directions(rng, 1)
        kernel_coeffs = np.repeat(
            beta.beta**-2.0, 2 * np.arange(M + 1) + 1
        ) * basis_matrix(M, tau, rho)[0]
        b2 = np.repeat(beta.beta**2.0, 2 * np.arange(M + 1) + 1)
        inner = float(np.sum(b2 * p.values * kernel_coeffs))
        value = float(synthesize(p, tau)[0])
        assert inner == pytest.approx(value, abs=1e-10)


class TestSmooth:
    def test_lambda_zero_is_hyperinterpolation(self, rng):
        rule = sphere_rule(5, 1.0)
        samples = rng.standard_normal(rule.n_points)
        params = SmoothingParams(lam=0.0, beta=linear_beta(5))
        out = smooth(samples, rule, params)
        ref = analyze(samples, rule, 5)
        np.testing.assert_array_equal(out.values, ref.values)

    def test_large_lambda_kills_everything(self, rng):
        rule = sphere_rule(4, 1.0)
        samples = rng.standard_normal(rule.n_points)
        out = smooth(samples, rule, SmoothingParams(lam=1e14, beta=unit_beta(4)))
        assert np.max(np.abs(out.values)) < 1e-10

    def test_monotone_damping(self, rng):
        rule = sphere_rule(4, 1.0)
        samples = rng.standard_normal(rule.n_points)
        beta = linear_beta(4)
        lams = [0.0, 1e-4, 1e-2, 0.5, 3.0, 100.0]
        previous = None
        for lam in lams:
            vals = np.abs(smooth(samples, rule, SmoothingParams(lam, beta)).values)
            if previous is not None:
                assert np.all(vals <= previous + 1e-15)
            previous = vals

    def test_functional_descent(self, rng):
        rule = sphere_rule(5, 1.0)
        samples = rng.standard_normal(rule.n_points)
        beta = linear_beta(5)
        base = smooth(samples, rule, SmoothingParams(0.0, beta))
        for lam in (1e-3, 0.1, 2.0):
            params = SmoothingParams(lam, beta)
            fitted = smooth(samples, rule, params)
            assert objective(samples, rule, params, fitted) <= objective(
                samples, rule, params, base
            ) + 1e-12


class TestSmoothOracle:
    def test_interpolation_consistency(self, rng):
        # lam = 0 on exact polynomial samples recovers the polynomial
        M = 5
        rule = sphere_rule(M, 1.0)
        coeffs = HarmonicCoefficients(M=M, radius=1.0, values=rng.standard_normal(36))
        samples = synthesize(coeffs, rule.points)
        out = smooth_oracle(samples, rule, SmoothingParams(0.0, linear_beta(M)))
        np.testing.assert_allclose(out.values, coeffs.values, atol=1e-9)

    def test_scalar_case(self):
        # constant samples c, lam = 1, beta = 1: c * rho * sqrt(4 pi) / 2
        rule = sphere_rule(0, 1.0)
        c = 3.7
        out = smooth_oracle(
            np.full(rule.n_points, c), rule, SmoothingParams(1.0, unit_beta(0))
        )
        assert out.values[0] == pytest.approx(c * math.sqrt(FOUR_PI) / 2.0, abs=1e-12)

    def test_oracle_pairing(self, rng):
        for M in (2, 5, 8):
            rule = sphere_rule(M, 1.0)
            beta = linear_beta(M)
            for lam in (0.0, 1e-4, 0.1, 1.0):
                samples = rng.standard_normal(rule.n_points)
                params = SmoothingParams(lam, beta)
                closed = smooth(samples, rule, params)
                direct = smooth_oracle(samples, rule, params)
                assert np.max(np.abs(closed.values - direct.values)) < 1e-8

    def test_degree_cap(self):
        rule = sphere_rule(13, 1.0)
        with pytest.raises(ValidationError):
            smooth_oracle(
                np.zeros(rule.n_points), rule, SmoothingParams(0.1, unit_beta(13))
            )

    def test_oracle_on_scaled_sphere(self, rng):
        rule = sphere_rule(4, 2.5)
        samples = rng.standard_normal(rule.n_points)
        params = SmoothingParams(0.05, linear_beta(4))
        closed = smooth(samples, rule, params)
        direct = smooth_oracle(samples, rule, params)
        assert np.max(np.abs(closed.values - direct.values)) < 1e-8
