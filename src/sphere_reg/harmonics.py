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
* Associated Legendre values are computed by one upward recurrence in
  degree with prenormalized coefficients, stable well past degree 100, one
  degree at a time (``_associated_legendre``).  It feeds both the dense
  point-by-point evaluator ``basis_matrix`` and the per-rule ring tables
  of the FFT transforms in ``operators``.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator

import numpy as np

from .errors import ValidationError

_RADIUS_RTOL = 1e-9


def _off_tolerance(x, ref, scale: float) -> np.ndarray:
    """Elementwise: not |x - ref| <= 1e-9 * max(scale, 1), so NaN is off.

    The one tolerance rule of the package, for radii and rule points.
    """
    return ~(np.abs(x - ref) <= _RADIUS_RTOL * max(scale, 1.0))


def radius_mismatch(r, ref: float) -> bool:
    """True if any radius in r is off the reference radius ref, or NaN."""
    return bool(np.any(_off_tolerance(np.asarray(r), ref, ref)))


def check_degree(M, name: str = "M") -> None:
    """Raise ValidationError unless M is a nonnegative integer."""
    if not isinstance(M, numbers.Integral) or M < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {M!r}")


def check_finite(values: np.ndarray, what: str, name: str) -> None:
    """Raise ValidationError naming the first non-finite entry, as name_i."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        value = float(values.flat[i])
        raise ValidationError(f"{what} must be finite, got {name}_{i} = {value!r}")


def legendre_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Stack P_0(t)..P_kmax(t) for array argument t; shape (k_max+1,) + t.shape."""
    check_degree(k_max, "k_max")
    t = np.asarray(t, dtype=float)
    check_finite(t, "Legendre arguments", "t")
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValidationError("Legendre argument outside [-1, 1]")
    out = np.empty((k_max + 1,) + t.shape)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = t
    for n in range(1, k_max):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def _associated_legendre(
    M: int, ct: np.ndarray, st: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, Q) for k = 0..M; Q[:, m] = Q_k^m at the polar pairs (ct, st).

    ``ct`` and ``st`` are (n, 1) columns of polar cosines and sines.  Q_k^m
    are the L2-normalized associated Legendre values, so that Y_{k,0} =
    Q_k^0 and Y_{k,+-m} = sqrt(2) Q_k^m cos/sin(m phi).  They follow the
    upward recurrence in degree with prenormalized coefficients, for every
    order at once, keeping only degrees k-1 and k-2; seed Q_0^0 =
    1/sqrt(4 pi).  The yielded Q seeds the next degrees, so callers must not
    modify it.
    """
    Q = np.full((ct.shape[0], 1), 1.0 / math.sqrt(4.0 * math.pi))
    prev = None
    for k in range(M + 1):
        if k:
            older, prev = prev, Q
            Q = np.empty((ct.shape[0], k + 1))
            m = np.arange(k - 1)
            a = np.sqrt((2 * k - 1) * (2 * k + 1) / ((k - m) * (k + m)))
            b = np.sqrt(
                (2 * k + 1) * (k + m - 1) * (k - m - 1)
                / ((k - m) * (k + m) * (2 * k - 3.0))
            )
            if k >= 2:
                Q[:, : k - 1] = (a * ct) * prev[:, : k - 1] - b * older[:, : k - 1]
            Q[:, k - 1 : k] = (math.sqrt(2 * k + 1) * ct) * prev[:, k - 1 :]
            Q[:, k:] = (math.sqrt((2 * k + 1) / (2.0 * k)) * st) * prev[:, k - 1 :]
        yield k, Q


def basis_matrix(M: int, points: np.ndarray, radius: float) -> np.ndarray:
    """Radius-scaled basis values (1/radius) Y_{k,j}(t/radius) at points.

    ``points`` is an (N, 3) array of Cartesian coordinates; every row of
    points / radius must be a unit vector within 1e-9.  Column k^2 + j - 1
    holds Y_{k,j}.  The associated Legendre values come from
    _associated_legendre at each point's own polar pair, and the trig
    values from each point's own longitude.
    """
    check_degree(M)
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius!r}")
    dirs = np.atleast_2d(np.asarray(points, dtype=float)) / radius
    if dirs.shape[1] != 3:
        raise ValidationError(f"points must be (N, 3), got {dirs.shape}")
    if radius_mismatch(np.linalg.norm(dirs, axis=1), 1.0):
        raise ValidationError("points / radius must be unit vectors")
    ct = dirs[:, 2:]
    st = np.hypot(dirs[:, 0], dirs[:, 1])[:, None]
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])[:, None] * np.arange(1, M + 1)
    cos_m, sin_m = np.cos(angles), np.sin(angles)  # (N, M)

    sqrt2 = math.sqrt(2.0)
    Y = np.empty((dirs.shape[0], (M + 1) * (M + 1)))
    for k, Q in _associated_legendre(M, ct, st):
        block = Y[:, k * k : (k + 1) * (k + 1)]
        block[:, k] = Q[:, 0]
        scaled = Q[:, 1:] * sqrt2
        np.multiply(scaled, cos_m[:, :k], out=block[:, k + 1 :])
        if k:
            np.multiply(scaled[:, ::-1], sin_m[:, k - 1 :: -1], out=block[:, :k])
    Y /= radius
    return Y
