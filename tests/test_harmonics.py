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
    harmonic_blocks,
    legendre_table,
    sphere_rule,
)
from sphere_reg.harmonics import radius_mismatch
from conftest import random_directions

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
    def test_relative_above_one_absolute_below(self):
        assert not radius_mismatch(2.0 + 1.9e-9, 2.0)
        assert radius_mismatch(2.0 + 2.1e-9, 2.0)
        assert not radius_mismatch(0.5 + 0.9e-9, 0.5)
        assert radius_mismatch(0.5 + 1.1e-9, 0.5)

    def test_any_entry_of_an_array(self):
        assert not radius_mismatch(np.array([3.0, 3.0 + 1e-9]), 3.0)
        assert radius_mismatch(np.array([3.0, 3.0, 3.1]), 3.0)


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
    Y = dense_sph_harm_matrix(M, dirs)
    degrees = []
    for k, block in harmonic_blocks(M, dirs):
        degrees.append(k)
        assert block.flags.c_contiguous
        assert_same_bits(block, Y[:, k * k : (k + 1) * (k + 1)])
    assert degrees == list(range(M + 1))


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
        # The ring FFT against per-degree sums over the blocks of the cached
        # dense basis (a fill of harmonic_blocks), column by column.
        grid = EvalGrid(sphere_rule(2 * M, R))
        coeffs = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        fields = grid.degree_fields(coeffs)
        assert grid._basis == {}
        B = grid.basis(M)
        oracle = np.column_stack(
            [B[:, k * k : (k + 1) * (k + 1)] @ coeffs.row(k) for k in range(M + 1)]
        )
        assert fields.shape == oracle.shape
        error = np.max(np.abs(fields - oracle), axis=0)
        assert np.all(error <= 1e-12 * np.max(np.abs(oracle), axis=0))

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
        oracle = np.column_stack(
            [block @ values[k * k : (k + 1) * (k + 1)]
             for k, block in harmonic_blocks(M, grid.points / grid.radius)]
        ) / grid.radius
        np.testing.assert_allclose(fields, oracle, rtol=1e-12, atol=1e-12 * 1e307)

    def test_degree_fields_need_a_rule_backed_grid(self, rng):
        coeffs = HarmonicCoefficients(M=2, radius=1.0, values=rng.standard_normal(9))
        with pytest.raises(ValidationError, match="rule-backed"):
            EvalGrid(sphere_rule(4, 1.0).points).degree_fields(coeffs)
        with pytest.raises(ValidationError, match="exceeds"):
            EvalGrid(sphere_rule(1, 1.0)).degree_fields(coeffs)

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
        # Repeated rows exercise the deduplication of polar pairs and longitudes.
        assert_blocks_match_oracle(M, np.tile(dirs / norms, (repeats, 1)))

    def test_invalid_directions_rejected(self):
        with pytest.raises(ValidationError):
            next(harmonic_blocks(2, np.array([[1.0, 1.0, 0.0]])))
        with pytest.raises(ValidationError):
            next(harmonic_blocks(2, np.ones((3, 2))))
