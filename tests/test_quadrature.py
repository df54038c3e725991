import math

import numpy as np
import pytest
import scipy.special

from sphere_reg import (
    CubatureRule,
    HarmonicCoefficients,
    ValidationError,
    basis_matrix,
    gauss_legendre,
    sphere_rule,
)
from sphere_reg.harmonics import _off_tolerance
from conftest import at_points


class TestGaussLegendre:
    def test_single_node(self):
        nodes, weights = gauss_legendre(1)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [2.0], atol=1e-15)

    def test_two_nodes(self):
        nodes, weights = gauss_legendre(2)
        np.testing.assert_allclose(
            nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15
        )
        np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-14)

    def test_five_nodes_integrate_t8(self):
        # analytic oracle: integral of t^8 over [-1, 1] is 2/9
        nodes, weights = gauss_legendre(5)
        value = float(weights @ nodes**8)
        assert value == pytest.approx(2.0 / 9.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 64, 101])
    def test_against_scipy(self, n):
        nodes, weights = gauss_legendre(n)
        expected_nodes, expected_weights = scipy.special.roots_legendre(n)
        np.testing.assert_allclose(nodes, expected_nodes, atol=1e-13)
        np.testing.assert_allclose(weights, expected_weights, atol=1e-13)
        assert float(np.sum(weights)) == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(nodes) > 0)
        assert np.min(weights) > 0

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            gauss_legendre(0)


class TestSphereRule:
    def test_point_count_matches_m30(self):
        rule = sphere_rule(30, 1.0)
        assert rule.n_points == 1922 == 2 * 31 * 31

    @pytest.mark.parametrize("M,rho", [(0, 1.0), (3, 1.0), (10, 2.5), (30, 1.0)])
    def test_weights_sum_to_sphere_area(self, M, rho):
        rule = sphere_rule(M, rho)
        area = 4.0 * math.pi * rho * rho
        assert float(np.sum(rule.weights)) == pytest.approx(area, rel=1e-10)
        assert np.min(rule.weights) > 0

    def test_gram_identity_on_scaled_sphere(self):
        M, rho = 5, 2.0
        rule = sphere_rule(M, rho)
        Y = basis_matrix(M, rule.points / rule.rho, 1.0) / rho
        gram = Y.T @ (rule.weights[:, None] * Y)
        assert np.max(np.abs(gram - np.eye((M + 1) ** 2))) < 1e-10

    def test_exactness_on_random_polynomials(self, rng):
        # analytic oracle: the integral over the sphere of a polynomial with
        # coefficients c is c_{0,1} * rho * sqrt(4 pi)
        M, rho = 4, 1.3
        rule = sphere_rule(M, rho)
        for _ in range(20):
            coeffs = HarmonicCoefficients(
                M=2 * M, radius=rho, values=rng.standard_normal((2 * M + 1) ** 2)
            )
            samples = at_points(coeffs, rule.points)
            expected = coeffs.values[0] * rho * math.sqrt(4.0 * math.pi)
            assert rule.weights @ samples == pytest.approx(
                expected, abs=1e-9 * max(1.0, abs(expected))
            )

    def test_refinement_consistency(self, rng):
        M, rho = 4, 1.0
        coeffs = HarmonicCoefficients(
            M=2 * M, radius=rho, values=rng.standard_normal((2 * M + 1) ** 2)
        )
        coarse = sphere_rule(M, rho)
        fine = sphere_rule(M + 5, rho)
        i_coarse = coarse.weights @ at_points(coeffs, coarse.points)
        i_fine = fine.weights @ at_points(coeffs, fine.points)
        assert i_coarse == pytest.approx(i_fine, abs=1e-10)

    def test_positivity_large_degree(self):
        rule = sphere_rule(100, 1.0)
        assert np.min(rule.weights) > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            sphere_rule(-1, 1.0)
        with pytest.raises(ValidationError):
            sphere_rule(3, 0.0)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_radius(self, rho):
        with pytest.raises(ValidationError, match="rho must be positive and finite"):
            sphere_rule(1, rho)


class TestCubatureRuleFields:
    """A rule is built from its degree and radius, and checks both."""

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius_rejected_with_sphere_rules_message(self, rho):
        with pytest.raises(
            ValidationError, match=rf"^rho must be positive and finite, got {rho!r}$"
        ):
            CubatureRule(M=4, rho=rho)

    def test_arrays_are_read_only(self):
        # The Legendre and DFT tables memoized in the rule derive from them.
        rule = sphere_rule(4, 1.0)
        for values in (rule.points, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_every_point_has_its_antipode(self):
        # Ring R - 1 - r's point l + n_phi/2 is the negative of ring r's
        # point l, under the package's tolerance rule: ring_degree_sums
        # computes the first half of the rings and mirrors the rest.
        for M in (0, 1, 2, 7, 30, 56, 111, 128, 139, 255, 256):
            for rho in (1e-150, 1e-9, 1.0, 1.3, 7e4, 1e150):
                rule = sphere_rule(M, rho)
                by_ring = rule.points.reshape(-1, 2 * (M + 1), 3)
                sums = by_ring[:, : M + 1] + by_ring[::-1, M + 1 :]
                assert not _off_tolerance(sums, 0.0, rho).any(), (M, rho)

    def test_overflowing_weights_rejected(self):
        # rho^2 overflows: the radius is finite, the area weights are not.
        with pytest.raises(ValidationError, match=r"^rule weights must be finite"):
            sphere_rule(1, 1e200)


class TestIntegrate:
    def test_constant_one(self):
        rule = sphere_rule(6, 1.0)
        value = rule.weights @ np.ones(rule.n_points)
        assert value == pytest.approx(4.0 * math.pi, abs=1e-10)

    def test_mean_zero_harmonic(self):
        rule = sphere_rule(2, 1.0)
        vals = basis_matrix(2, rule.points / rule.rho, 1.0)[:, 2 * 2 + 3 - 1]
        assert rule.weights @ vals == pytest.approx(0.0, abs=1e-10)

    def test_orthonormal_square(self):
        rule = sphere_rule(3, 1.0)  # exact to degree 6
        vals = basis_matrix(3, rule.points / rule.rho, 1.0)[:, 3 * 3 + 1 - 1]
        assert rule.weights @ (vals * vals) == pytest.approx(1.0, abs=1e-10)

