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
  degree at a time (``_associated_legendre``).  It feeds both the harmonic
  blocks at scattered points (``harmonic_blocks``, of which the dense
  ``basis_matrix`` is a fill) and the per-rule ring tables of the FFT
  transforms in ``operators``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ValidationError

_RADIUS_RTOL = 1e-9


def radius_mismatch(r, ref: float) -> bool:
    """True if any radius in r is off the reference radius ref.

    The one tolerance rule of the package: |r - ref| > 1e-9 * max(ref, 1).
    """
    return bool(np.any(np.abs(np.asarray(r) - ref) > _RADIUS_RTOL * max(ref, 1.0)))


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


def _exact_unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a float array by bit pattern, and each row's position."""
    bits = keys.reshape(keys.shape[0], -1).view(np.uint64)
    distinct, inverse = np.unique(bits, axis=0, return_inverse=True)
    return distinct.view(float), inverse.reshape(-1)


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


def harmonic_blocks(M: int, directions: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, block) for k = 0..M; block is the (T, 2k+1) array of Y_{k,j}.

    Column j - 1 of the block holds Y_{k,j} at every direction, so block k
    is columns k^2..(k+1)^2 - 1 of basis_matrix(M, directions, 1.0), and
    one block at a time needs O(T M) memory.  The associated Legendre
    values come from _associated_legendre, once per distinct (cos, sin)
    polar pair, and the trig values once per distinct longitude; both are
    then gathered to the points.  Duplicates are exact (bitwise): along a
    ring of a product grid, hypot and arctan2 differ in the last bit.  Each
    direction row must have norm 1 within 1e-9.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != 3:
        raise ValidationError(f"directions must be (T, 3), got {dirs.shape}")
    if radius_mismatch(np.linalg.norm(dirs, axis=1), 1.0):
        raise ValidationError("direction rows must be unit vectors")
    polar, at_polar = _exact_unique(
        np.stack([dirs[:, 2], np.hypot(dirs[:, 0], dirs[:, 1])], axis=1)
    )
    phi, at_phi = _exact_unique(np.arctan2(dirs[:, 1], dirs[:, 0]))
    m_range = np.arange(1, M + 1)
    angles = phi * m_range  # (distinct longitudes, M)
    cos_m = np.cos(angles)[at_phi]  # (T, M)
    sin_m = np.sin(angles)[at_phi]

    sqrt2 = math.sqrt(2.0)
    T = dirs.shape[0]
    for k, Q in _associated_legendre(M, polar[:, :1], polar[:, 1:]):
        scaled = Q.copy()
        scaled[:, 1:] *= sqrt2
        at_points = scaled[at_polar]  # (T, k+1)
        block = np.empty((T, 2 * k + 1))
        block[:, k] = at_points[:, 0]
        np.multiply(at_points[:, 1:], cos_m[:, :k], out=block[:, k + 1 :])
        if k:
            np.multiply(at_points[:, :0:-1], sin_m[:, k - 1 :: -1], out=block[:, :k])
        yield k, block


def basis_matrix(M: int, points: np.ndarray, radius: float) -> np.ndarray:
    """Radius-scaled basis values (1/radius) Y_{k,j}(t/radius) at points.

    ``points`` is an (N, 3) array of Cartesian coordinates; every row of
    points / radius must be a unit vector within 1e-9.  Column k^2 + j - 1
    holds Y_{k,j}: the blocks of harmonic_blocks side by side.
    """
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius!r}")
    dirs = np.atleast_2d(np.asarray(points, dtype=float)) / radius
    Y = np.empty((dirs.shape[0], (M + 1) * (M + 1)))
    for k, block in harmonic_blocks(M, dirs):
        Y[:, k * k : (k + 1) * (k + 1)] = block
    Y /= radius
    return Y
