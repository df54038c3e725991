import math

import numpy as np
import pytest

from sphere_reg import EvalGrid, basis_matrix, sphere_rule
from sphere_reg.operators import _ring_legendre


@pytest.fixture(scope="session")
def rule_m6():
    return sphere_rule(6, 1.0)


@pytest.fixture(scope="session")
def grid_m6():
    return EvalGrid(sphere_rule(12, 1.0))


@pytest.fixture()
def grid_error_inputs():
    """_nested_pass arguments where alpha = 1e-4, the third of four, has
    overflowing fields (factors near 50 on field sums of 1e307) and the
    next alpha, 0.0, has a non-finite factor (0 / 0 at a_0 = 0).
    """
    Z = np.array([[1.0, 1e307, 1e307]] * 4)
    zmax = np.max(np.abs(Z), axis=0)
    a, b = np.array([0.0, 1e-2, 1e-2]), np.ones(3)
    return Z, zmax, a, b, [1.0, 1e-2, 1e-4, 0.0], [0.0, 1.0]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def at_points(c, points):
    """The values of coefficients c at free (T, 3) points on c's sphere."""
    return basis_matrix(c.M, points, c.radius) @ c.values


def degree_row(c, k):
    """Coefficients c of degree k, j = 1..2k+1: values[k^2:(k+1)^2]."""
    return c.values[k * k : (k + 1) ** 2]


def ring_spectra(values, M, rule):
    """Yield (k, X) for k = 0..M, X the longitude spectra of degree k's parts.

    The per-degree oracle of operators.synthesize_stack and of
    EvalGrid.degree_fields.  ``values`` is a (B, (M+1)^2) stack of
    coefficient arrays, and X[b] is set b's (rings, n_phi/2 + 1) table.  On
    ring r, sum_j c_{k,j} Y_{k,j} is irfft(X[b, r], n_phi, norm="forward")
    for X[b, :, 0] = Q_k^0 c_{k,0}, X[b, :, m] = Q_k^m (c_{k,m} - i c_{k,-m})
    / sqrt(2) for 0 < m <= k, and 0 above k.  One buffer is refilled for
    every degree; callers must not keep it.
    """
    table = _ring_legendre(rule, M)
    X = np.zeros((len(values), table.shape[0], rule.M + 2), dtype=complex)
    half_sqrt2 = math.sqrt(2.0) / 2
    for k in range(M + 1):
        Q = table[:, k * (k + 1) // 2 : (k + 1) * (k + 2) // 2]
        row = values[:, k * k : (k + 1) * (k + 1)]
        X[:, :, 0] = Q[:, 0] * row[:, k : k + 1]
        if k:
            orders = half_sqrt2 * (row[:, k + 1 :] - 1j * row[:, k - 1 :: -1])
            np.multiply(Q[:, 1:], orders[:, None, :], out=X[:, :, 1 : k + 1])
        yield k, X
