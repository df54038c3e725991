import numpy as np
import pytest

from sphere_reg import EvalGrid, sphere_rule


@pytest.fixture(scope="session")
def rule_m6():
    return sphere_rule(6, 1.0)


@pytest.fixture(scope="session")
def grid_m6():
    return EvalGrid(sphere_rule(12, 1.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
