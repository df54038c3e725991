import math

import numpy as np
import pytest

from sphere_reg import (
    HarmonicCoefficients,
    SphericalSymbol,
    ValidationError,
    analyze,
    apply_forward,
    sphere_rule,
    symbol_preset,
    synthesize,
)

FOUR_PI = 4.0 * math.pi


class TestHarmonicCoefficients:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            HarmonicCoefficients(M=2, radius=1.0, values=np.zeros(8))
        with pytest.raises(ValidationError):
            HarmonicCoefficients(M=2, radius=0.0, values=np.zeros(9))

    def test_get_and_row(self):
        c = HarmonicCoefficients(M=2, radius=1.0, values=np.arange(9.0))
        np.testing.assert_array_equal(c.row(0), [0.0])
        np.testing.assert_array_equal(c.row(1), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(c.row(2), [4.0, 5.0, 6.0, 7.0, 8.0])

    def test_subtraction_checks_radius(self):
        a = HarmonicCoefficients(M=1, radius=1.0, values=np.zeros(4))
        b = HarmonicCoefficients(M=1, radius=2.0, values=np.zeros(4))
        with pytest.raises(ValidationError):
            a - b

    def test_scaled_by_degree(self):
        c = HarmonicCoefficients(M=1, radius=1.0, values=np.array([1.0, 2.0, 3.0, 4.0]))
        scaled = c.scaled_by_degree(np.array([2.0, 10.0]))
        np.testing.assert_array_equal(scaled.values, [2.0, 20.0, 30.0, 40.0])


class TestAnalyze:
    def test_constant_function(self):
        rho = 1.7
        rule = sphere_rule(4, rho)
        c = analyze(np.ones(rule.n_points), rule, 4)
        assert c.values[0] == pytest.approx(rho * math.sqrt(FOUR_PI), abs=1e-10)
        rest = c.values[1:]
        assert np.max(np.abs(rest)) < 1e-10
        assert c.radius == rho

    def test_single_basis_function(self):
        rho = 2.0
        rule = sphere_rule(6, rho)
        target = HarmonicCoefficients(M=6, radius=rho, values=np.zeros(49))
        target.values[4 * 4 + 2 - 1] = 1.0
        samples = synthesize(target, rule.points)
        c = analyze(samples, rule, 6)
        expected = np.zeros(49)
        expected[4 * 4 + 2 - 1] = 1.0
        np.testing.assert_allclose(c.values, expected, atol=1e-10)

    def test_round_trip_on_polynomials(self, rng):
        M = 8
        rule = sphere_rule(M, 1.0)
        values = rng.standard_normal((100, (M + 1) ** 2))
        for i in range(100):
            coeffs = HarmonicCoefficients(M=M, radius=1.0, values=values[i])
            back = analyze(synthesize(coeffs, rule.points), rule, M)
            assert np.max(np.abs(back.values - coeffs.values)) < 1e-9

    def test_requires_exact_rule(self):
        rule = sphere_rule(3, 1.0)
        with pytest.raises(ValidationError):
            analyze(np.ones(rule.n_points), rule, 4)

    def test_sample_count_mismatch(self):
        rule = sphere_rule(3, 1.0)
        with pytest.raises(ValidationError):
            analyze(np.ones(3), rule, 3)


class TestSynthesize:
    def test_constant(self):
        c = HarmonicCoefficients(M=2, radius=1.0, values=np.zeros(9))
        c.values[0] = math.sqrt(FOUR_PI)
        pts = sphere_rule(2, 1.0).points
        np.testing.assert_allclose(synthesize(c, pts), np.ones(len(pts)), atol=1e-12)

    def test_zero_coefficients(self):
        c = HarmonicCoefficients(M=3, radius=1.0, values=np.zeros(16))
        pts = sphere_rule(1, 1.0).points
        np.testing.assert_array_equal(synthesize(c, pts), np.zeros(len(pts)))

    def test_radius_mismatch(self):
        c = HarmonicCoefficients(M=1, radius=1.0, values=np.zeros(4))
        pts = sphere_rule(1, 2.0).points
        with pytest.raises(ValidationError):
            synthesize(c, pts)


class TestSymbolRadii:
    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValidationError, match="rho < inf"):
            SphericalSymbol(a=np.ones(3), R=1.0, rho=rho)
        with pytest.raises(ValidationError, match="rho < inf"):
            symbol_preset("polynomial(2)", 1.0, rho, 4)


class TestApplyForward:
    def test_identity_symbol(self, rng):
        ident = SphericalSymbol(a=np.ones(6), R=1.0, rho=1.0, name="ones")
        x = HarmonicCoefficients(M=5, radius=1.0, values=rng.standard_normal(36))
        y = apply_forward(ident, x)
        np.testing.assert_array_equal(y.values, x.values)
        assert y.radius == 1.0

    def test_single_mode_scaling(self):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 4)
        x = HarmonicCoefficients(M=4, radius=1.0, values=np.zeros(25))
        x.values[2 * 2 + 1 - 1] = 1.0  # (k, j) = (2, 1)
        y = apply_forward(sym, x)
        assert y.values[2 * 2 + 1 - 1] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_sst_round_trip(self, rng):
        sym = symbol_preset("sst", 1.0, 2.0, 8)
        x = HarmonicCoefficients(M=8, radius=1.0, values=rng.standard_normal(81))
        y = apply_forward(sym, x)
        back = y.scaled_by_degree(1.0 / sym.a, radius=1.0)
        np.testing.assert_allclose(back.values, x.values, atol=1e-12)

    def test_spectral_diagonality(self, rng):
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, 6)
        vals = rng.uniform(0.5, 1.5, 49)
        x = HarmonicCoefficients(M=6, radius=1.0, values=vals)
        y = apply_forward(sym, x)
        for k in range(7):
            np.testing.assert_array_equal(y.row(k), sym.a[k] * x.row(k))
            np.testing.assert_allclose(y.row(k) / x.row(k), sym.a[k], rtol=1e-15)

    def test_radius_and_degree_mismatch(self):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 3)
        x_bad_radius = HarmonicCoefficients(M=3, radius=2.0, values=np.zeros(16))
        with pytest.raises(ValidationError):
            apply_forward(sym, x_bad_radius)
        x_bad_degree = HarmonicCoefficients(M=4, radius=1.0, values=np.zeros(25))
        with pytest.raises(ValidationError):
            apply_forward(sym, x_bad_degree)


class TestSymbolPresets:
    def test_geometric_values(self):
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, 3)
        assert sym.a[0] == pytest.approx(1.0)
        assert sym.a[1] == pytest.approx(1.0 / 1.48, abs=1e-12)

    def test_geometric_keyword(self):
        sym = symbol_preset("geometric", 1.0, 1.0, 3, q=2.0)
        np.testing.assert_allclose(sym.a, [1.0, 0.5, 0.25, 0.125])

    def test_polynomial_value(self):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 5)
        assert sym.a[3] == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_sst_first_entry(self):
        sym = symbol_preset("sst", 1.0, 2.0, 4)
        assert sym.a[0] == pytest.approx(0.5)

    def test_sst_equal_radii_rejected(self):
        # a_k = (k+1)/rho increases with k: invalid preset configuration
        with pytest.raises(ValidationError):
            symbol_preset("sst", 1.0, 1.0, 4)

    def test_sgg_needs_wide_gap(self):
        with pytest.raises(ValidationError):
            symbol_preset("sgg", 1.0, 2.0, 4)
        sym = symbol_preset("sgg", 1.0, 3.0, 4)
        assert np.all(np.diff(sym.a) <= 0)

    @pytest.mark.parametrize(
        "name", ["geometric(1.48)", "polynomial(2)", "sst", "sgg"]
    )
    def test_presets_are_monotone(self, name):
        rho = 3.0 if name in ("sst", "sgg") else 1.0
        sym = symbol_preset(name, 1.0, rho, 20)
        assert np.all(sym.a > 0)
        assert np.all(np.diff(sym.a) <= 0)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            symbol_preset("geometric(1.0)", 1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            symbol_preset("polynomial(-2)", 1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            symbol_preset("unknown", 1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            symbol_preset("sst(2)", 1.0, 3.0, 3)
        with pytest.raises(ValidationError):
            symbol_preset("polynomial(2)", 2.0, 1.0, 3)  # R > rho

