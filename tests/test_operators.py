import dataclasses
import math

import numpy as np
import pytest

from sphere_reg import (
    CubatureRule,
    HarmonicCoefficients,
    SphericalSymbol,
    ValidationError,
    analyze,
    apply_forward,
    basis_matrix,
    gauss_legendre,
    legendre_table,
    sphere_rule,
    symbol_preset,
    synthesize,
)
from sphere_reg.operators import _ring_legendre
from conftest import at_points

FOUR_PI = 4.0 * math.pi


@pytest.mark.parametrize(
    "build",
    [
        lambda: symbol_preset("geometric(1.48)", 1.0, 1.0, 2.5),
        lambda: symbol_preset("geometric(1.48)", 1.0, 1.0, -1),
        lambda: analyze(np.zeros(50), sphere_rule(4, 1.0), -1),
        lambda: analyze(np.zeros(50), sphere_rule(4, 1.0), 1.0),
        lambda: HarmonicCoefficients(M=-1, radius=1.0, values=np.zeros(0)),
        lambda: HarmonicCoefficients(M=1.0, radius=1.0, values=np.zeros(4)),
        lambda: sphere_rule(2.5, 1.0),
        lambda: sphere_rule(-1, 1.0),
        lambda: gauss_legendre(2.5),
        lambda: basis_matrix(2.5, np.array([[0.0, 0.0, 1.0]]), 1.0),
        lambda: basis_matrix(-1, np.array([[0.0, 0.0, 1.0]]), 1.0),
        lambda: legendre_table(-1, np.array([0.3])),
    ],
    ids=[
        "preset-2.5", "preset-neg", "analyze-neg", "analyze-float",
        "coeffs-neg", "coeffs-float", "rule-2.5", "rule-neg", "gauss-2.5",
        "basis-2.5", "basis-neg", "legendre-neg",
    ],
)
def test_degree_that_is_not_a_nonnegative_integer_is_refused(build):
    with pytest.raises(ValidationError, match="must be a nonnegative integer"):
        build()


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
        samples = at_points(target, rule.points)
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
            back = analyze(at_points(coeffs, rule.points), rule, M)
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
        rule = sphere_rule(2, 1.0)
        np.testing.assert_allclose(synthesize(c, rule), np.ones(rule.n_points), atol=1e-12)

    def test_zero_coefficients(self):
        c = HarmonicCoefficients(M=3, radius=1.0, values=np.zeros(16))
        rule = sphere_rule(3, 1.0)
        np.testing.assert_array_equal(synthesize(c, rule), np.zeros(rule.n_points))

    def test_radius_mismatch(self):
        c = HarmonicCoefficients(M=1, radius=1.0, values=np.zeros(4))
        with pytest.raises(ValidationError):
            synthesize(c, sphere_rule(1, 2.0))

    def test_point_array_rejected(self):
        # Free points go through basis_matrix; synthesize takes a rule only.
        c = HarmonicCoefficients(M=1, radius=1.0, values=np.ones(4))
        with pytest.raises(ValidationError, match="CubatureRule"):
            synthesize(c, sphere_rule(1, 1.0).points)


# (rule degree, analysis degree, rho): analysis at and below the rule's degree.
RING_CASES = [
    (0, 0, 1.0),
    (1, 1, 1.0),
    (5, 5, 1.7),
    (30, 30, 1.0),
    (56, 56, 1.0),
    (12, 5, 2.0),
    (30, 1, 0.6),
]
RING_IDS = [f"rule{r}-M{m}-rho{rho}" for r, m, rho in RING_CASES]


def without_last_point(rule):
    return CubatureRule(
        points=rule.points[:-1],
        weights=rule.weights[:-1],
        rho=rule.rho,
        M=rule.M,
    )


class TestRingTransforms:
    """The ring FFTs against the dense basis paths they replace."""

    @pytest.mark.parametrize("rule_M, M, rho", RING_CASES, ids=RING_IDS)
    def test_analyze_matches_dense_oracle(self, rng, rule_M, M, rho):
        rule = sphere_rule(rule_M, rho)
        samples = rng.standard_normal(rule.n_points)
        dense = basis_matrix(M, rule.points, rho).T @ (rule.weights * samples)
        c = analyze(samples, rule, M)
        assert c.M == M and c.radius == rho
        assert np.max(np.abs(c.values - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("rule_M, M, rho", RING_CASES, ids=RING_IDS)
    def test_ring_synthesis_matches_point_synthesis(self, rng, rule_M, M, rho):
        rule = sphere_rule(rule_M, rho)
        c = HarmonicCoefficients(
            M=M, radius=rho, values=rng.standard_normal((M + 1) ** 2)
        )
        dense = at_points(c, rule.points)
        ringed = synthesize(c, rule)
        assert ringed.shape == (rule.n_points,)
        assert np.max(np.abs(ringed - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("rule_M, M, rho", RING_CASES, ids=RING_IDS)
    def test_round_trip(self, rng, rule_M, M, rho):
        rule = sphere_rule(rule_M, rho)
        c = HarmonicCoefficients(
            M=M, radius=rho, values=rng.standard_normal((M + 1) ** 2)
        )
        back = analyze(synthesize(c, rule), rule, M)
        assert np.max(np.abs(back.values - c.values)) <= 1e-13 * np.max(
            np.abs(c.values)
        )

    def test_weights_apply_per_point(self, rng):
        # Weights that vary along a ring, as a perturbed rule has, weight
        # each sample as the dense sum does.
        base = sphere_rule(5, 1.0)
        rule = CubatureRule(
            points=base.points,
            weights=base.weights * rng.uniform(0.9, 1.1, base.n_points),
            rho=base.rho,
            M=base.M,
        )
        samples = rng.standard_normal(rule.n_points)
        dense = basis_matrix(5, rule.points, 1.0).T @ (rule.weights * samples)
        c = analyze(samples, rule, 5)
        assert np.max(np.abs(c.values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_huge_samples_analyze_to_finite_coefficients(self):
        # A ring sum of these samples overflows; the coefficients (the
        # degree-0 one is 1.4e308) do not.
        rule = sphere_rule(6, 2.0)
        samples = np.full(rule.n_points, 2e307)
        c = analyze(samples, rule, 6).values
        assert np.all(np.isfinite(c))
        assert c[0] == pytest.approx(math.sqrt(FOUR_PI) * 2.0 * 2e307, rel=1e-13)

    def test_legendre_table_is_computed_once_per_degree(self):
        rule = sphere_rule(8, 1.0)
        table = _ring_legendre(rule, 8)
        assert _ring_legendre(rule, 8) is table
        assert table.shape == (9, 45)
        analyze(np.ones(rule.n_points), rule, 8)
        synthesize(HarmonicCoefficients(M=8, radius=1.0, values=np.ones(81)), rule)
        assert list(rule._cache) == [8] and rule._cache[8] is table

    def test_replaced_rule_starts_its_own_cache(self):
        # The cache is no init field: replace neither copies nor shares it.
        rule = sphere_rule(4, 1.0)
        table = _ring_legendre(rule, 4)
        init = [f.name for f in dataclasses.fields(CubatureRule) if f.init]
        assert init == ["points", "weights", "rho", "M"]
        moved = dataclasses.replace(rule, points=2.0 * rule.points, rho=2.0)
        assert moved._cache == {}
        assert _ring_legendre(moved, 4) is not table
        assert list(rule._cache) == [4] and rule._cache[4] is table

    def test_analyze_beyond_the_rule_degree_rejected(self):
        # The ring table refuses it: the rule is exact to degree 2 rule.M only.
        rule = sphere_rule(3, 1.0)
        with pytest.raises(ValidationError, match="degree 4 exceeds the rule's degree 3"):
            analyze(np.ones(rule.n_points), rule, 4)

    def test_rule_on_a_nan_sphere_rejected(self):
        # The rule itself refuses the radius, so no transform receives it.
        base = sphere_rule(4, 1.0)
        with pytest.raises(ValidationError, match="rho must be positive and finite, got nan"):
            CubatureRule(points=base.points, weights=base.weights, rho=math.nan, M=4)

    def test_rule_without_rings_rejected(self):
        rule = without_last_point(sphere_rule(4, 1.0))
        c = HarmonicCoefficients(M=4, radius=1.0, values=np.ones(25))
        with pytest.raises(ValidationError, match="rings"):
            analyze(np.ones(rule.n_points), rule, 4)
        with pytest.raises(ValidationError, match="rings"):
            synthesize(c, rule)

    def test_ring_synthesis_checks_degree_and_radius(self):
        c = HarmonicCoefficients(M=3, radius=1.0, values=np.ones(16))
        with pytest.raises(ValidationError, match="exceeds"):
            synthesize(c, sphere_rule(2, 1.0))
        with pytest.raises(ValidationError, match="does not match"):
            synthesize(c, sphere_rule(3, 2.0))


class TestSymbolRadii:
    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValidationError, match="rho < inf"):
            SphericalSymbol(a=np.ones(3), R=1.0, rho=rho)
        with pytest.raises(ValidationError, match="rho < inf"):
            symbol_preset("polynomial(2)", 1.0, rho, 4)


class TestSymbolEntries:
    @pytest.mark.parametrize(
        "a, named",
        [([1.0, math.nan], "a_1 = nan"), ([math.inf, 1.0], "a_0 = inf")],
        ids=["nan", "inf"],
    )
    def test_non_finite_entries_named(self, a, named):
        # NaN passes both the sign and the order test, and inf passes them
        # at degree 0.
        message = f"symbol 'custom' entries must be finite, got {named}"
        with pytest.raises(ValidationError, match=message):
            SphericalSymbol(a=np.array(a), R=1.0, rho=1.0)


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

    def test_geometric_base_is_inline(self):
        sym = symbol_preset("geometric(2)", 1.0, 1.0, 3)
        np.testing.assert_array_equal(sym.a, [1.0, 0.5, 0.25, 0.125])
        with pytest.raises(ValidationError, match="needs base q > 1, got None"):
            symbol_preset("geometric", 1.0, 1.0, 3)

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

