import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sphere_reg import (
    EvalGrid,
    HarmonicCoefficients,
    ValidationError,
    basis_matrix,
    sphere_rule,
    sup_norm,
    synthesize,
)
from sphere_reg.harmonics import legendre_table, point_norms, radius_mismatch
from sphere_reg.operators import _parity, _ring_dft, _ring_legendre, ring_degree_sums
from conftest import degree_row, random_directions, ring_spectra

FOUR_PI = 4.0 * math.pi


def legendre(k, t):
    """P_k(t) for scalar t: entry k of the Legendre table."""
    return float(legendre_table(k, t)[k])


def harmonic(k, j, u):
    """Y_{k,j}(u) for one unit vector u: column k^2 + j - 1 of the matrix."""
    return float(basis_matrix(k, np.asarray(u)[None, :], 1.0)[0, k * k + j - 1])


def rodrigues_p5(t):
    # explicit degree-5 polynomial expanded from the Rodrigues formula
    return (63.0 * t**5 - 70.0 * t**3 + 15.0 * t) / 8.0


class TestLegendre:
    def test_degree_zero_is_one(self):
        assert legendre(0, 0.7) == 1.0

    def test_degree_two_closed_form(self):
        assert legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_degree_five_against_rodrigues_expansion(self):
        # frozen oracle value: (63*0.3^5 - 70*0.3^3 + 15*0.3)/8 = 0.34538625
        assert legendre(5, 0.3) == pytest.approx(rodrigues_p5(0.3), abs=1e-15)
        assert legendre(5, 0.3) == pytest.approx(0.34538625, abs=1e-12)

    def test_against_scipy(self):
        ts = np.linspace(-1.0, 1.0, 41)
        for k in (1, 3, 10, 25, 61):
            ours = np.array([legendre(k, t) for t in ts])
            ref = scipy.special.eval_legendre(k, ts)
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            legendre(3, 1.0 + 1e-9)
        # within the 1e-12 slack is fine
        legendre(3, 1.0 + 1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_argument_named(self, bad):
        with pytest.raises(ValidationError, match=f"must be finite, got t_1 = {bad}"):
            legendre_table(2, np.array([0.5, bad, math.nan]))

    @given(
        k=st.integers(min_value=0, max_value=61),
        t=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_one(self, k, t):
        assert abs(legendre(k, t)) <= 1.0 + 1e-12

    def test_table_matches_scalar(self, rng):
        ts = rng.uniform(-1.0, 1.0, 7)
        table = legendre_table(12, ts)
        for k in range(13):
            for i, t in enumerate(ts):
                assert table[k, i] == pytest.approx(legendre(k, t), abs=1e-14)


class TestSphHarm:
    def test_constant_harmonic(self):
        u = np.array([0.3, -1.2, 0.8]) / np.linalg.norm([0.3, -1.2, 0.8])
        assert harmonic(0, 1, u) == pytest.approx(
            1.0 / math.sqrt(FOUR_PI), abs=1e-15
        )

    def test_degree_one_sum_of_squares(self, rng):
        # addition theorem at zero angle: sum_j Y_{1,j}^2 = 3/(4 pi)
        for u in random_directions(rng, 5):
            total = sum(harmonic(1, j, u) ** 2 for j in (1, 2, 3))
            assert total == pytest.approx(3.0 / FOUR_PI, abs=1e-13)

    def test_low_degree_closed_forms(self, rng):
        # hand-written table of real harmonics (no Condon-Shortley phase)
        for u in random_directions(rng, 4):
            x, y, z = u
            c1 = math.sqrt(3.0 / FOUR_PI)
            assert harmonic(1, 1, u) == pytest.approx(c1 * y, abs=1e-13)
            assert harmonic(1, 2, u) == pytest.approx(c1 * z, abs=1e-13)
            assert harmonic(1, 3, u) == pytest.approx(c1 * x, abs=1e-13)
            assert harmonic(2, 3, u) == pytest.approx(
                math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * z * z - 1.0), abs=1e-13
            )
            assert harmonic(2, 4, u) == pytest.approx(
                math.sqrt(15.0 / FOUR_PI) * x * z, abs=1e-13
            )
            assert harmonic(2, 5, u) == pytest.approx(
                math.sqrt(15.0 / (16.0 * math.pi)) * (x * x - y * y), abs=1e-13
            )
            assert harmonic(2, 1, u) == pytest.approx(
                math.sqrt(15.0 / FOUR_PI) * x * y, abs=1e-13
            )
            assert harmonic(2, 2, u) == pytest.approx(
                math.sqrt(15.0 / FOUR_PI) * y * z, abs=1e-13
            )

    def test_against_scipy_assoc_legendre(self, rng):
        # scipy lpmv carries the Condon-Shortley phase; ours does not
        dirs = random_directions(rng, 6)
        M = 10
        Y = basis_matrix(M, dirs, 1.0)
        ct = dirs[:, 2]
        phi = np.arctan2(dirs[:, 1], dirs[:, 0])
        for k in range(M + 1):
            for m in range(0, k + 1):
                norm = math.sqrt(
                    (2 * k + 1)
                    / FOUR_PI
                    * math.factorial(k - m)
                    / math.factorial(k + m)
                )
                q = norm * (-1.0) ** m * scipy.special.lpmv(m, k, ct)
                if m == 0:
                    expected = q
                    np.testing.assert_allclose(
                        Y[:, k * k + k], expected, atol=1e-12
                    )
                else:
                    np.testing.assert_allclose(
                        Y[:, k * k + k + m],
                        math.sqrt(2.0) * q * np.cos(m * phi),
                        atol=1e-12,
                    )
                    np.testing.assert_allclose(
                        Y[:, k * k + k - m],
                        math.sqrt(2.0) * q * np.sin(m * phi),
                        atol=1e-12,
                    )

    def test_discrete_inner_product_orthonormal(self):
        # <Y_{2,1}, Y_{2,1}> under a degree-4 rule is 1
        rule = sphere_rule(2, 1.0)
        vals = basis_matrix(2, rule.points / rule.rho, 1.0)[:, 2 * 2 + 1 - 1]
        assert rule.weights @ (vals * vals) == pytest.approx(1.0, abs=1e-10)


class TestAdditionTheorem:
    def test_random_pairs(self, rng):
        M = 20
        u = random_directions(rng, 30)
        v = random_directions(rng, 30)
        Yu = basis_matrix(M, u, 1.0)
        Yv = basis_matrix(M, v, 1.0)
        cos_uv = np.clip(np.sum(u * v, axis=1), -1.0, 1.0)
        p = legendre_table(M, cos_uv)
        for k in range(M + 1):
            lo, hi = k * k, (k + 1) * (k + 1)
            lhs = np.sum(Yu[:, lo:hi] * Yv[:, lo:hi], axis=1)
            rhs = (2 * k + 1) / FOUR_PI * p[k]
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_pairs(self, data):
        coords = st.floats(min_value=-1.0, max_value=1.0)
        raw_u = [data.draw(coords) for _ in range(3)]
        raw_v = [data.draw(coords) for _ in range(3)]
        if np.linalg.norm(raw_u) < 1e-3 or np.linalg.norm(raw_v) < 1e-3:
            return
        u = np.asarray(raw_u) / np.linalg.norm(raw_u)
        v = np.asarray(raw_v) / np.linalg.norm(raw_v)
        k = data.draw(st.integers(min_value=0, max_value=15))
        Yu = basis_matrix(k, u[None, :], 1.0)[0]
        Yv = basis_matrix(k, v[None, :], 1.0)[0]
        lo, hi = k * k, (k + 1) * (k + 1)
        lhs = float(np.sum(Yu[lo:hi] * Yv[lo:hi]))
        rhs = (2 * k + 1) / FOUR_PI * legendre(k, float(np.clip(u @ v, -1, 1)))
        assert lhs == pytest.approx(rhs, abs=1e-11)


class TestRadiusMismatch:
    def test_relative_at_every_radius(self):
        assert not radius_mismatch(2.0 + 1.9e-9, 2.0)
        assert radius_mismatch(2.0 + 2.1e-9, 2.0)
        assert not radius_mismatch(0.5 + 0.4e-9, 0.5)
        assert radius_mismatch(0.5 + 0.6e-9, 0.5)
        # Below radius 1 the tolerance shrinks with the radius, so radii
        # five times apart never match.
        assert not radius_mismatch(1e-12 * (1 + 0.9e-9), 1e-12)
        assert radius_mismatch(5e-12, 1e-12)
        assert radius_mismatch(1e-300, 5e-300)

    def test_coefficients_off_a_small_rule_sphere_are_refused(self):
        # Synthesis onto a rule five times the coefficients' sphere used to
        # return values up to 2.1e12 without an error.
        c = HarmonicCoefficients(M=2, radius=1e-12, values=np.ones(9))
        with pytest.raises(ValidationError, match="rule sphere 5e-12 does not match"):
            synthesize(c, sphere_rule(2, 5e-12))
        assert np.all(np.isfinite(synthesize(c, sphere_rule(2, 1e-12))))

    @pytest.mark.parametrize("r", [1e-160, 3e-162])
    def test_points_of_a_tiny_sphere_match_its_radius(self, r):
        # Their squared coordinates are subnormal, so np.linalg.norm loses
        # digits; the norms of the points scaled by a power of two keep them.
        pts = sphere_rule(4, r).points
        assert radius_mismatch(np.linalg.norm(pts, axis=1), r)
        assert not radius_mismatch(point_norms(pts), r)
        assert not radius_mismatch(EvalGrid(pts).radius, r)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.3])
    def test_point_norms_are_the_plain_norms_off_underflow(self, r):
        pts = sphere_rule(6, r).points
        np.testing.assert_array_equal(point_norms(pts), np.linalg.norm(pts, axis=1))

    def test_any_entry_of_an_array(self):
        assert not radius_mismatch(np.array([3.0, 3.0 + 1e-9]), 3.0)
        assert radius_mismatch(np.array([3.0, 3.0, 3.1]), 3.0)

    def test_nan_is_a_mismatch(self):
        assert radius_mismatch(math.nan, 1.0)
        assert radius_mismatch(1.0, math.nan)
        assert radius_mismatch(np.array([1.0, math.nan]), 1.0)


class TestBasis:
    def test_single_entry_unit_radius(self):
        np.testing.assert_allclose(
            basis_matrix(0, [[0.0, 0.0, 1.0]], 1.0)[0],
            [1.0 / math.sqrt(FOUR_PI)],
            atol=1e-15,
        )

    def test_radius_scaling(self):
        np.testing.assert_allclose(
            basis_matrix(0, [[0.0, 0.0, 2.0]], 2.0)[0],
            [0.5 / math.sqrt(FOUR_PI)],
            atol=1e-15,
        )

    def test_north_pole_kills_nonzonal_entries(self):
        vals = basis_matrix(3, [[0.0, 0.0, 1.0]], 1.0)[0]
        for k in range(4):
            for j in range(1, 2 * k + 2):
                if j != k + 1:  # m != 0
                    assert vals[k * k + j - 1] == 0.0
                else:
                    assert vals[k * k + j - 1] != 0.0

    def test_basis_matrix_rejects_off_sphere_points(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(ValidationError):
            basis_matrix(2, pts, 1.0)

    def test_basis_matrix_rejects_nan_points(self):
        pts = np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="must be unit vectors"):
            basis_matrix(2, pts, 1.0)

    def test_discrete_gram_is_identity(self):
        M = 8
        rule = sphere_rule(M, 1.3)
        B = basis_matrix(M, rule.points, 1.3)
        gram = B.T @ (rule.weights[:, None] * B)
        assert np.max(np.abs(gram - np.eye((M + 1) ** 2))) < 1e-10


# Dense oracle: the full (M+1, M+1, T) Legendre table and the column loop
# that the streamed degree blocks replace.


def dense_assoc_legendre(M, ct, st):
    Q = np.zeros((M + 1, M + 1, ct.shape[0]))
    Q[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, M + 1):
        Q[m, m] = math.sqrt((2 * m + 1) / (2.0 * m)) * st * Q[m - 1, m - 1]
    for m in range(M):
        Q[m + 1, m] = math.sqrt(2 * m + 3) * ct * Q[m, m]
    for m in range(M + 1):
        for k in range(m + 2, M + 1):
            a = math.sqrt((2 * k - 1) * (2 * k + 1) / ((k - m) * (k + m)))
            b = math.sqrt(
                (2 * k + 1) * (k + m - 1) * (k - m - 1)
                / ((k - m) * (k + m) * (2 * k - 3.0))
            )
            Q[k, m] = a * ct * Q[k - 1, m] - b * Q[k - 2, m]
    return Q


def dense_sph_harm_matrix(M, dirs):
    ct = dirs[:, 2]
    st = np.hypot(dirs[:, 0], dirs[:, 1])
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    Q = dense_assoc_legendre(M, ct, st)
    m_range = np.arange(1, M + 1)
    cos_m = np.cos(m_range[:, None] * phi[None, :])
    sin_m = np.sin(m_range[:, None] * phi[None, :])
    Y = np.empty((dirs.shape[0], (M + 1) * (M + 1)))
    sqrt2 = math.sqrt(2.0)
    for k in range(M + 1):
        base = k * k + k
        Y[:, base] = Q[k, 0]
        for m in range(1, k + 1):
            qv = sqrt2 * Q[k, m]
            Y[:, base + m] = qv * cos_m[m - 1]
            Y[:, base - m] = qv * sin_m[m - 1]
    return Y


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_blocks_match_oracle(M, dirs):
    """Each degree's columns of basis_matrix equal the oracle's, bit for bit."""
    Y = basis_matrix(M, dirs, 1.0)
    oracle = dense_sph_harm_matrix(M, dirs)
    assert Y.shape == oracle.shape
    for k in range(M + 1):
        block = slice(k * k, (k + 1) * (k + 1))
        assert_same_bits(Y[:, block], oracle[:, block])


def oracle_points(rng, M, R):
    """Product-grid points, both poles with signed zeros, scattered points."""
    poles = np.array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]]
    )
    dirs = np.vstack(
        [sphere_rule(2 * M, 1.0).points, poles, random_directions(rng, 40)]
    )
    return dirs * R


ORACLE_DEGREES = [0, 1, 2, 5, 30]


def irfft_degree_fields(coeffs, grid):
    """The per-degree ring FFT that EvalGrid.degree_fields' DFT products replace.

    Column k is one inverse real FFT along each ring of degree k's
    longitude spectra (conftest.ring_spectra), divided by the radius.
    """
    rule = grid.rule
    n_phi = 2 * (rule.M + 1)
    Z = np.empty((rule.n_points, coeffs.M + 1))
    for k, X in ring_spectra(coeffs.values[None], coeffs.M, rule):
        ring_values = np.fft.irfft(X[0], n=n_phi, axis=1, norm="forward")
        np.divide(ring_values.reshape(-1), grid.radius, out=Z[:, k])
    return Z


def near_rings(table, grid):
    """The rows of a full-height table on the first half of the grid's rings.

    EvalGrid.degree_fields computes the rings 0..ceil(R/2) - 1 of the R
    rings of its rule; the other rings are their antipodes.
    """
    rings = grid.rule.M + 1
    return table[: -(-rings // 2) * 2 * rings]


def per_degree_fill_fields(coeffs, grid):
    """The per-degree fill that EvalGrid.degree_fields' two scatters replace.

    Per block of 16 rings, S is filled with two np.multiply calls per
    degree, one for the cosine rows and one for the sine rows, then
    multiplied by the rule's DFT table; the result is divided by the
    coefficients' radius.
    """
    rule, M = grid.rule, coeffs.M
    table = _ring_legendre(rule, M)
    tables = [table[:, k * (k + 1) // 2 : (k + 1) * (k + 2) // 2] for k in range(M + 1)]
    dft = _ring_dft(rule, M)
    rings, n_phi = len(table), len(dft)
    half_sqrt2 = math.sqrt(2.0) / 2
    rows = [degree_row(coeffs, k) for k in range(M + 1)]
    cosines = [np.append(r[k], half_sqrt2 * r[k + 1 :]) for k, r in enumerate(rows)]
    sines = [half_sqrt2 * r[:k][::-1] for k, r in enumerate(rows)]
    Z = np.empty((rings * n_phi, M + 1))
    by_ring = Z.reshape(rings, n_phi, M + 1)
    S = np.zeros((16, 2 * M + 1, M + 1))
    for start in range(0, rings, 16):
        block = slice(start, min(start + 16, rings))
        Sb = S[: block.stop - start]
        for k, Q in enumerate(tables):
            np.multiply(Q[block], cosines[k], out=Sb[:, : k + 1, k])
            np.multiply(Q[block, 1:], sines[k], out=Sb[:, M + 1 : M + 1 + k, k])
        np.matmul(dft, Sb, out=by_ring[block])
    np.divide(Z, coeffs.radius, out=Z)
    return Z


class TestStreamedBlocks:
    @pytest.mark.parametrize("M", ORACLE_DEGREES)
    @pytest.mark.parametrize("R", [1.0, 1.7])
    def test_blocks_and_basis_match_dense_oracle(self, rng, M, R):
        pts = oracle_points(rng, M, R)
        assert_blocks_match_oracle(M, pts / R)
        assert_same_bits(basis_matrix(M, pts, R), dense_sph_harm_matrix(M, pts / R) / R)

    @pytest.mark.parametrize("M", ORACLE_DEGREES + [56])
    @pytest.mark.parametrize("R", [1.0, 1.7])
    def test_streamed_degree_fields_equal_cached(self, rng, M, R):
        # The ring FFT against per-degree sums over the degree blocks of the
        # cached dense basis, column by column.
        grid = EvalGrid(sphere_rule(2 * M, R))
        coeffs = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        fields = grid.degree_fields(coeffs)
        assert grid._basis == {}
        B = grid.basis(M)
        oracle = near_rings(
            np.column_stack(
                [
                    B[:, k * k : (k + 1) * (k + 1)] @ degree_row(coeffs, k)
                    for k in range(M + 1)
                ]
            ),
            grid,
        )
        assert fields.shape == oracle.shape
        error = np.max(np.abs(fields - oracle), axis=0)
        assert np.all(error <= 1e-12 * np.max(np.abs(oracle), axis=0))

    @pytest.mark.parametrize("M", ORACLE_DEGREES + [56])
    @pytest.mark.parametrize("R", [1.0, 1.7])
    def test_degree_fields_match_the_ring_fft(self, rng, M, R):
        # The ring-blocked DFT products against the per-degree inverse FFTs
        # they replace, column by column, on the rings computed; at M = 30
        # and 56 the first 31 and 57 of 61 and 113 rings end in a partial
        # block.
        grid = EvalGrid(sphere_rule(2 * M, R))
        coeffs = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        fields = grid.degree_fields(coeffs)
        oracle = near_rings(irfft_degree_fields(coeffs, grid), grid)
        assert fields.shape == oracle.shape and fields.flags.c_contiguous
        error = np.max(np.abs(fields - oracle), axis=0)
        assert np.all(error <= 1e-13 * np.max(np.abs(oracle), axis=0))

    @pytest.mark.parametrize(
        "M, R", [(M, R) for M in ORACLE_DEGREES + [56] for R in (1.0, 1.7)] + [(5, 1.3)]
    )
    def test_degree_fields_equal_the_per_degree_fill(self, rng, M, R):
        # The packed fill against the per-degree one, bit for bit.  At M = 5,
        # R = 1.3 the grid's measured radius is one ulp below rule.rho, and
        # the fields are divided by the coefficients' radius, as synthesize's.
        grid = EvalGrid(sphere_rule(2 * M, R))
        coeffs = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        if (M, R) == (5, 1.3):
            assert grid.radius < grid.rule.rho
        assert_same_bits(
            grid.degree_fields(coeffs), near_rings(per_degree_fill_fields(coeffs, grid), grid)
        )

    def test_degree_fields_of_huge_coefficients_stay_finite(self, rng):
        # Unscaled inverse FFT: the table is not multiplied by the ring
        # length (10 here), so coefficients near 1e307, and a degree-0 one
        # whose field is 4.2e307, give finite fields.
        M = 2
        grid = EvalGrid(sphere_rule(2 * M, 1.0))
        values = 1e307 * rng.choice([-1.0, 1.0], (M + 1) ** 2)
        values[0] = 1.5e308
        fields = grid.degree_fields(HarmonicCoefficients(M=M, radius=1.0, values=values))
        assert np.all(np.isfinite(fields))
        Y = basis_matrix(M, near_rings(grid.points, grid) / grid.radius, 1.0)
        oracle = np.column_stack(
            [Y[:, k * k : (k + 1) * (k + 1)] @ values[k * k : (k + 1) * (k + 1)]
             for k in range(M + 1)]
        ) / grid.radius
        np.testing.assert_allclose(fields, oracle, rtol=1e-12, atol=1e-12 * 1e307)

    @pytest.mark.parametrize("M", [0, 1, 2, 5, 30, 56])
    def test_degree_fields_keep_the_first_half_of_rings(self, rng, M):
        # sphere_rule(2M, R) has 2M + 1 rings of 2(2M + 1) points; the
        # field sums hold the first M + 1 of them, the equator ring last.
        grid = EvalGrid(sphere_rule(2 * M, 1.3))
        coeffs = HarmonicCoefficients(
            M=M, radius=1.3, values=rng.standard_normal((M + 1) ** 2)
        )
        rings, n_phi = 2 * M + 1, 2 * (2 * M + 1)
        assert grid.degree_fields(coeffs).shape == (-(-rings // 2) * n_phi, M + 1)

    @pytest.mark.parametrize("M", [1, 2, 5, 30, 56])
    @pytest.mark.parametrize("R", [1.0, 1.7])
    def test_mirrored_rows_match_synthesize_on_the_far_rings(self, rng, M, R):
        # Ring r's rows times the degree parity, rolled half a turn, are the
        # values on ring R - 1 - r: the rings the field sums leave out, and
        # the equator ring again.
        grid = EvalGrid(sphere_rule(2 * M, R))
        coeffs = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        n_phi = 2 * (grid.rule.M + 1)
        fields = grid.degree_fields(coeffs)
        mirrored = np.roll((fields * _parity(M + 1)).reshape(-1, n_phi, M + 1), n_phi // 2, 1)
        assert mirrored.shape == (M + 1, n_phi, M + 1)
        values = synthesize(coeffs, grid.rule).reshape(-1, n_phi)
        far = values[::-1][: len(mirrored)]
        error = np.max(np.abs(mirrored.sum(axis=2) - far))
        assert error <= 1e-13 * np.max(np.abs(values))

    def test_degree_fields_need_a_rule_backed_grid(self, rng):
        coeffs = HarmonicCoefficients(M=2, radius=1.0, values=rng.standard_normal(9))
        with pytest.raises(ValidationError, match="rule-backed"):
            EvalGrid(sphere_rule(4, 1.0).points).degree_fields(coeffs)
        with pytest.raises(ValidationError, match="exceeds"):
            EvalGrid(sphere_rule(1, 1.0)).degree_fields(coeffs)

    def test_field_sums_pass_synthesize_gate(self, rng):
        # A grid on another sphere, or a point array where a rule belongs,
        # is refused with synthesize's messages, as sup_norm refuses it.
        coeffs = HarmonicCoefficients(M=2, radius=1.0, values=rng.standard_normal(9))
        grid = EvalGrid(sphere_rule(6, 2.0))
        message = "rule sphere 2.0 does not match coefficients on 1.0"
        for call in (grid.degree_fields, lambda c: sup_norm(c, grid)):
            with pytest.raises(ValidationError, match=message):
                call(coeffs)
        with pytest.raises(ValidationError, match="synthesize needs a CubatureRule"):
            ring_degree_sums(coeffs, sphere_rule(4, 1.0).points)

    @given(
        dirs=st.integers(1, 12).flatmap(
            lambda n: arrays(
                float,
                (n, 3),
                elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-3])
                | st.floats(-1.0, 1.0),
            )
        ),
        repeats=st.integers(1, 3),
        M=st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_unit_vector_sets(self, dirs, repeats, M):
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        if np.any(norms < 1e-3):
            return
        # Repeated rows must give repeated rows, bit for bit.
        assert_blocks_match_oracle(M, np.tile(dirs / norms, (repeats, 1)))

    def test_invalid_directions_rejected(self):
        with pytest.raises(ValidationError):
            basis_matrix(2, np.array([[1.0, 1.0, 0.0]]), 1.0)
        with pytest.raises(ValidationError):
            basis_matrix(2, np.ones((3, 2)), 1.0)
