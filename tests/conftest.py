import numpy as np
import pytest

from sphere_reg import EvalGrid, basis_matrix, sphere_rule


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
