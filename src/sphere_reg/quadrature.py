"""Gauss-Legendre rules on [-1, 1] and product cubature on a sphere.

The sphere rule tensors M+1 Gauss-Legendre nodes in the polar cosine with
2(M+1) equispaced longitudes, giving N = 2(M+1)^2 points that integrate
every spherical polynomial of degree <= 2M exactly over the sphere of
radius rho (surface measure, so constant 1 integrates to 4 pi rho^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .harmonics import check_degree, check_finite, legendre_table

_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class LineRule:
    """Quadrature nodes/weights on [-1, 1]; weights sum to 2."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ValidationError("nodes and weights must have equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValidationError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValidationError("weights must be positive")


def _check_rho(rho) -> None:
    if not 0 < rho < math.inf:
        raise ValidationError(f"rho must be positive and finite, got {rho!r}")


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """Product cubature on the sphere of radius rho, exact to degree 2M."""

    points: np.ndarray  # (N, 3) Cartesian, all on radius rho
    weights: np.ndarray  # (N,) positive, units of area on the sphere
    rho: float
    M: int
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_rho(self.rho)
        check_finite(self.points, "rule points", "coordinate")
        check_finite(self.weights, "rule weights", "w")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _legendre_and_derivative(n: int, t: np.ndarray):
    """P_n(t) and P_n'(t) for interior t and n >= 1."""
    table = legendre_table(n, t)
    p, p_prev = table[n], table[n - 1]
    dp = n * (p_prev - t * p) / (1.0 - t * t)
    return p, dp


def gauss_legendre(n: int) -> LineRule:
    """Gauss-Legendre rule with n nodes, exact for degree <= 2n-1.

    Nodes are the roots of P_n found by Newton iteration from Chebyshev
    initial guesses; weights are 2 / ((1-t^2) P_n'(t)^2).

    Raises
    ------
    NumericalError
        If Newton iteration has not converged after 100 steps, which would
        signal a defect rather than a hard input.
    """
    check_degree(n, "node count n")
    if n < 1:
        raise ValidationError(f"need at least one node, got n={n}")
    i = np.arange(n)
    t = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre_and_derivative(n, t)
        step = p / dp
        t = t - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise NumericalError(f"Gauss-Legendre Newton iteration stalled for n={n}")
    _, dp = _legendre_and_derivative(n, t)
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    order = np.argsort(t)
    return LineRule(nodes=t[order], weights=w[order])


def sphere_rule(M: int, rho: float) -> CubatureRule:
    """Product rule with N = 2(M+1)^2 points on the sphere of radius rho.

    Polar cosines are the M+1 Gauss-Legendre nodes; longitudes sit at
    phi_l = pi l / (M+1) for l = 0..2M+1.  The weight of point (i, l) is
    rho^2 * pi/(M+1) * w_i, so the rule integrates every spherical
    polynomial of degree <= 2M exactly over the surface.  Points are stored
    ring by ring: row i * 2(M+1) + l is point (i, l), with the nodes
    ascending.
    """
    check_degree(M)
    _check_rho(rho)
    line = gauss_legendre(M + 1)
    n_phi = 2 * (M + 1)
    phi = np.pi * np.arange(n_phi) / (M + 1)

    ct = np.repeat(line.nodes, n_phi)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ph = np.tile(phi, M + 1)
    points = rho * np.column_stack((st * np.cos(ph), st * np.sin(ph), ct))
    weights = rho * rho * (np.pi / (M + 1)) * np.repeat(line.weights, n_phi)
    return CubatureRule(points=points, weights=weights, rho=float(rho), M=M)

