"""Legendre polynomials and real orthonormal spherical harmonics.

Conventions used throughout the package:

* Real harmonics ``Y_{k,j}`` with ``j = m + k + 1`` for ``m = -k..k``.
  Negative ``m`` carries ``sin(|m| phi)``, positive ``m`` carries
  ``cos(m phi)`` with a ``sqrt(2)`` factor; the Condon-Shortley phase is
  omitted.  The basis is L2-orthonormal on the unit sphere, which is the
  only property downstream code relies on.
* Coefficient vectors are stored flat in canonical order: degree ``k``
  ascending, ``j = 1..2k+1`` within each degree, so ``(k, j)`` sits at
  flat position ``k^2 + j - 1``.
* Associated Legendre values are computed by upward recurrence in degree
  with prenormalized coefficients, stable well past degree 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_UNIT_TOL = 1e-12
_RADIUS_RTOL = 1e-9


def radius_mismatch(r, ref: float) -> bool:
    """True if any radius in r is off the reference radius ref.

    The one tolerance rule of the package: |r - ref| > 1e-9 * max(ref, 1).
    """
    return bool(np.any(np.abs(np.asarray(r) - ref) > _RADIUS_RTOL * max(ref, 1.0)))


@dataclass(frozen=True)
class UnitVector:
    """Direction on the unit sphere; coordinates must satisfy |u| = 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        nrm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValidationError(f"not a unit vector: |u| = {nrm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector":
        nrm = math.sqrt(x * x + y * y + z * z)
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(x / nrm, y / nrm, z / nrm)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "UnitVector":
        """Polar angle theta in [0, pi], longitude phi."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True)
class SpherePoint:
    """Point on a sphere of given radius, stored as direction + radius."""

    direction: UnitVector
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"radius must be positive, got {self.radius!r}")

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "SpherePoint":
        r = math.sqrt(x * x + y * y + z * z)
        return cls(UnitVector.normalized(x, y, z), r)

    def xyz(self) -> np.ndarray:
        return self.radius * self.direction.as_array()


@dataclass(frozen=True)
class DegreeIndex:
    """Harmonic index (k, j) with degree k >= 0 and 1 <= j <= 2k+1."""

    k: int
    j: int

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"degree must be nonnegative, got {self.k}")
        if not 1 <= self.j <= 2 * self.k + 1:
            raise ValidationError(f"order index j={self.j} outside 1..{2 * self.k + 1}")

    @property
    def m(self) -> int:
        """Signed azimuthal order, m = j - k - 1."""
        return self.j - self.k - 1

    @property
    def flat(self) -> int:
        """Position in the canonical flat coefficient ordering."""
        return self.k * self.k + self.j - 1


def flat_index(k: int, j: int) -> int:
    """Flat position of (k, j); equals k^2 + j - 1."""
    return DegreeIndex(k, j).flat


def legendre(k: int, t: float) -> float:
    """Legendre polynomial P_k(t) by the three-term recurrence.

    Raises ValidationError if |t| exceeds 1 by more than 1e-12.
    """
    if k < 0:
        raise ValidationError(f"degree must be nonnegative, got {k}")
    if abs(t) > 1.0 + 1e-12:
        raise ValidationError(f"Legendre argument outside [-1, 1]: {t!r}")
    return float(legendre_table(k, t)[k])


def legendre_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Stack P_0(t)..P_kmax(t) for array argument t; shape (k_max+1,) + t.shape."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValidationError("Legendre argument outside [-1, 1]")
    out = np.empty((k_max + 1,) + t.shape)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = t
    for n in range(1, k_max):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def _normalized_assoc_legendre(M: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Spherically normalized associated Legendre values Q[k, m] at cos = ct.

    Q is normalized so that Y_{k,0} = Q[k, 0] and Y_{k,m!=0} uses
    sqrt(2) * Q[k, |m|] * cos/sin(m phi); seed Q[0,0] = 1/sqrt(4 pi).
    """
    T = ct.shape[0]
    Q = np.zeros((M + 1, M + 1, T))
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


def sph_harm_matrix(M: int, directions: np.ndarray) -> np.ndarray:
    """Evaluate all Y_{k,j}, k <= M, at unit vectors.

    Parameters
    ----------
    M : int
        Maximum degree.
    directions : ndarray, shape (T, 3)
        Unit vectors; each row must have norm 1 within 1e-9.

    Returns
    -------
    ndarray, shape (T, (M+1)**2)
        Column k^2 + j - 1 holds Y_{k,j} at every point.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != 3:
        raise ValidationError(f"directions must be (T, 3), got {dirs.shape}")
    if radius_mismatch(np.linalg.norm(dirs, axis=1), 1.0):
        raise ValidationError("direction rows must be unit vectors")

    ct = dirs[:, 2]
    st = np.hypot(dirs[:, 0], dirs[:, 1])
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])

    Q = _normalized_assoc_legendre(M, ct, st)
    m_range = np.arange(1, M + 1)
    cos_m = np.cos(m_range[:, None] * phi[None, :])  # (M, T)
    sin_m = np.sin(m_range[:, None] * phi[None, :])

    T = dirs.shape[0]
    Y = np.empty((T, (M + 1) * (M + 1)))
    sqrt2 = math.sqrt(2.0)
    for k in range(M + 1):
        base = k * k + k
        Y[:, base] = Q[k, 0]
        for m in range(1, k + 1):
            qv = sqrt2 * Q[k, m]
            Y[:, base + m] = qv * cos_m[m - 1]
            Y[:, base - m] = qv * sin_m[m - 1]
    return Y


def sph_harm(idx: DegreeIndex, u: UnitVector) -> float:
    """Real orthonormal spherical harmonic Y_{k,j} at a unit vector."""
    row = sph_harm_matrix(idx.k, u.as_array()[None, :])
    return float(row[0, idx.flat])


def basis_matrix(M: int, points: np.ndarray, radius: float) -> np.ndarray:
    """Radius-scaled basis values (1/radius) Y_{k,j}(t/radius) at points.

    ``points`` is an (N, 3) array of Cartesian coordinates; every row must
    lie on the sphere of the given radius (relative tolerance 1e-9).
    """
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if radius_mismatch(np.linalg.norm(pts, axis=1), radius):
        raise ValidationError(f"points do not lie on sphere of radius {radius}")
    return sph_harm_matrix(M, pts / radius) / radius


def eval_basis(M: int, p: SpherePoint) -> np.ndarray:
    """Basis vector (1/rho) Y_{k,j}(t/rho) for all k <= M at one point."""
    row = sph_harm_matrix(M, p.direction.as_array()[None, :])
    return row[0] / p.radius
