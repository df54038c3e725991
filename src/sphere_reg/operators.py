"""Spectral analysis/synthesis and the truncated forward operator.

Functions on a sphere of radius r are represented by their coefficients in
the orthonormal basis (1/r) Y_{k,j}(./r); the radius travels with the
coefficients so the 1/R versus 1/rho scaling can never be mixed up by a
caller.  The forward operator acts diagonally per degree through its
symbol sequence.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .harmonics import (
    _associated_legendre,
    check_degree,
    check_finite,
    radius_mismatch,
)
from .quadrature import CubatureRule


@dataclass(frozen=True, eq=False)
class HarmonicCoefficients:
    """Triangular coefficient array c_{k,j}, stored flat in canonical order.

    ``values[k^2 + j - 1]`` is the coefficient of (1/radius) Y_{k,j}(./radius)
    for k = 0..M, j = 1..2k+1.  Instances are treated as immutable.
    """

    M: int
    radius: float
    values: np.ndarray

    def __post_init__(self):
        check_degree(self.M)
        if not self.radius > 0:
            raise ValidationError(f"radius must be positive, got {self.radius!r}")
        expected = (self.M + 1) * (self.M + 1)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (expected,):
            raise ValidationError(
                f"need {expected} coefficients for M={self.M}, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def scaled_by_degree(
        self, factors: np.ndarray, radius: float | None = None
    ) -> "HarmonicCoefficients":
        """New coefficients with row k multiplied by factors[k]."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.M + 1,):
            raise ValidationError(
                f"need {self.M + 1} per-degree factors, got shape {factors.shape}"
            )
        out = self.values * np.repeat(factors, 2 * np.arange(self.M + 1) + 1)
        return HarmonicCoefficients(
            M=self.M, radius=self.radius if radius is None else radius, values=out
        )

    def __sub__(self, other: "HarmonicCoefficients") -> "HarmonicCoefficients":
        if self.M != other.M:
            raise ValidationError(f"degree mismatch: {self.M} vs {other.M}")
        if radius_mismatch(other.radius, self.radius):
            raise ValidationError(
                f"radius mismatch: {self.radius} vs {other.radius}"
            )
        return HarmonicCoefficients(
            M=self.M, radius=self.radius, values=self.values - other.values
        )


@dataclass(frozen=True, eq=False)
class SphericalSymbol:
    """Positive nonincreasing per-degree multipliers plus the two radii."""

    a: np.ndarray
    R: float
    rho: float
    name: str = "custom"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if not (0 < self.R <= self.rho < math.inf):
            raise ValidationError(
                "radii must satisfy 0 < R <= rho < inf, "
                f"got R={self.R}, rho={self.rho}"
            )
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("symbol sequence must be a nonempty vector")
        check_finite(a, f"symbol '{self.name}' entries", "a")
        if np.any(a <= 0):
            raise ValidationError(f"symbol '{self.name}' has nonpositive entries")
        if np.any(np.diff(a) > 0):
            raise ValidationError(
                f"symbol '{self.name}' is not nonincreasing; "
                "invalid preset configuration"
            )

    @property
    def M(self) -> int:
        return self.a.size - 1


#: Rings per product of ring_degree_sums.
_RING_BLOCK = 16


def _ring_legendre(rule: CubatureRule, M: int) -> np.ndarray:
    """Q_k^m at the rule's rings for k = 0..M, packed and memoized in the rule.

    Column k(k+1)/2 + m of the (rings, (M+1)(M+2)/2) table, the (k, m) of
    _packed(M), holds _associated_legendre at the polar cosine and sine of
    each ring, taken from its phi = 0 point.  Raises ValidationError if M
    exceeds rule.M.
    """
    n_phi = 2 * (rule.M + 1)
    if M > rule.M:
        raise ValidationError(f"degree {M} exceeds the rule's degree {rule.M}")
    table = rule._cache.get(M)
    if table is None:
        first = rule.points[::n_phi] / rule.rho
        ct = first[:, 2:]
        st = np.hypot(first[:, :1], first[:, 1:2])
        table = np.empty((len(first), (M + 1) * (M + 2) // 2))
        for k, Q in _associated_legendre(M, ct, st):
            table[:, k * (k + 1) // 2 : (k + 1) * (k + 2) // 2] = Q
        rule._cache[M] = table
    return table


def _ring_dft(rule: CubatureRule, M: int) -> np.ndarray:
    """(n_phi, 2M+1) table [1 | 2 cos(m phi_l) | 2 sin(m phi_l)], m = 1..M.

    phi_l = 2 pi l / n_phi are the longitudes of the rule's rings; the
    table is memoized in the rule beside its Legendre table.  Its
    product with a ring's order coefficients is the real inverse DFT that
    irfft(..., norm="forward") computes, for orders up to M < n_phi / 2.
    """
    key = ("dft", M)
    table = rule._cache.get(key)
    if table is None:
        n_phi = 2 * (rule.M + 1)
        # Reduced mod n_phi, so every angle is below 2 pi.
        turns = np.outer(np.arange(n_phi), np.arange(1, M + 1)) % n_phi
        angles = (2 * math.pi / n_phi) * turns
        table = np.hstack((np.ones((n_phi, 1)), 2 * np.cos(angles), 2 * np.sin(angles)))
        rule._cache[key] = table
    return table


@functools.lru_cache(maxsize=8)
def _packed(M: int) -> tuple[np.ndarray, ...]:
    """Read-only (k, m) of the packed columns, np.tril_indices(M + 1), their
    orders' flat index [k(k+1) + m, k(k+1) - m] and its scale (sqrt(2)/2 at m > 0)."""
    k, m = np.tril_indices(M + 1)
    index = np.stack((k * (k + 1) + m, k * (k + 1) - m))
    scale = np.where(m > 0, math.sqrt(2.0) / 2, 1.0)
    for a in (k, m, index, scale):
        a.flags.writeable = False
    return k, m, index, scale


def _ring_inputs(stack: Sequence[HarmonicCoefficients], target: CubatureRule):
    """(table, cosines, sines) of a stack on a rule: both ring syntheses' gate.

    Raises ValidationError unless target is a CubatureRule on the stack's
    sphere and the sets share one degree and radius.  Column k(k+1)/2 + m
    of the (B, packed columns) orders holds c_{k,0} and 0 at m = 0 and
    c_{k,m} and c_{k,-m} times sqrt(2)/2 above, gathered from k^2 + k +- m.
    """
    if not isinstance(target, CubatureRule):
        raise ValidationError(
            f"synthesize needs a CubatureRule, got {type(target).__name__}"
        )
    M, radius, radii = stack[0].M, stack[0].radius, [c.radius for c in stack]
    if any(c.M != M for c in stack) or radius_mismatch(radii, radius):
        raise ValidationError("coefficient sets must share degree and radius")
    if radius_mismatch(target.rho, radius):
        raise ValidationError(
            f"rule sphere {target.rho} does not match coefficients on {radius}"
        )
    _, m, index, scale = _packed(M)
    orders = np.stack([c.values for c in stack])[:, index]
    orders *= scale
    orders[:, 1, m == 0] = 0.0
    return _ring_legendre(target, M), orders[:, 0], orders[:, 1]


def _parity(n: int) -> np.ndarray:
    """(-1)^k for k < n: a degree-k field's sign at the antipode of a point."""
    return np.where(np.arange(n) % 2, -1.0, 1.0)


def ring_degree_sums(coeffs: HarmonicCoefficients, rule: CubatureRule) -> np.ndarray:
    """Per-degree partial sums of synthesize(coeffs, rule) on its first rings.

    Returns Z of shape (ceil(R/2) n_phi, M+1) for the rule's R rings of
    n_phi points: the rows of rings 0..ceil(R/2) - 1.  Column k holds
    sum_j c_{k,j} (1/radius) Y_{k,j} at those points, so a per-degree
    rescaling synthesizes as Z @ factors; gate and divisor are
    synthesize's.  The other rings hold the antipodes: the point of row
    (ring r, point l) has its antipode at ring R - 1 - r, point l +
    n_phi/2, where degree k's field is Z[row, k] * (-1)^k (_parity).  So
    np.vstack((Z, Z * _parity(M + 1))) holds the values at every point,
    the far rings' in mirrored order; with R odd it holds the equator ring
    twice, once computed and once mirrored, the same points rounded
    differently.

    A ring's rows are C @ S_r: C is the real inverse DFT table
    (_ring_dft), S_r's column k holds Q_k^m times degree k's packed orders
    (_ring_inputs), cosines in rows m and sines in rows M + m.  Per block
    of _RING_BLOCK rings, two scatters fill S and one matmul writes its
    rows: O(T M^2) work, and no dense basis.
    """
    M = coeffs.M
    table, cosines, sines = _ring_inputs([coeffs], rule)
    dft = _ring_dft(rule, M)
    rings, n_phi = -(-len(table) // 2), len(dft)
    k, m, _, _ = _packed(M)
    sine = m > 0
    sine_rows, sine_cols, sines = M + m[sine], k[sine], sines[0, sine]
    Z = np.empty((rings * n_phi, M + 1))
    by_ring = Z.reshape(rings, n_phi, M + 1)
    S = np.zeros((_RING_BLOCK, 2 * M + 1, M + 1))  # orders above k stay 0
    for start in range(0, rings, _RING_BLOCK):
        block = slice(start, min(start + _RING_BLOCK, rings))
        Sb = S[: block.stop - start]
        Sb[:, m, k] = table[block] * cosines[0]
        Sb[:, sine_rows, sine_cols] = table[block, sine] * sines
        np.matmul(dft, Sb, out=by_ring[block])
    np.divide(Z, coeffs.radius, out=Z)
    return Z


def check_rule_weights(rule: CubatureRule) -> None:
    """Raise ValidationError if any of the rule's weights is subnormal (or 0)."""
    if rule.weights.min() < np.finfo(float).tiny:
        raise ValidationError(f"rule weights are subnormal at rho = {rule.rho!r}")


def analyze(samples: np.ndarray, rule: CubatureRule, M: int) -> HarmonicCoefficients:
    """Discrete Fourier coefficients of sampled data on the rule's sphere.

    Computes c_{k,j} = sum_i w_i (1/rho) Y_{k,j}(t_i/rho) samples_i for all
    k <= M.  Exact whenever the samples come from a spherical polynomial of
    degree <= M, because the rule integrates products of two such
    polynomials without error.

    The sums run as one real FFT along each ring of the weighted samples,
    F = rfft(w * samples), and then c_{k,0} = sum_r Q_k^0 Re F[r, 0],
    c_{k,m} = sqrt(2) sum_r Q_k^m Re F[r, m] and c_{k,-m} = -sqrt(2) sum_r
    Q_k^m Im F[r, m], divided by rho: O(M^3) work and no dense basis.

    Raises ValidationError if M is not a nonnegative integer, the sample
    count does not match the rule, the rule's degree is below M, so that it
    is not exact to degree 2M, or its weights are subnormal.
    """
    check_degree(M)
    samples = rule.samples(samples)
    check_rule_weights(rule)
    table, (k, m, _, _), n_phi = _ring_legendre(rule, M), _packed(M), 2 * (rule.M + 1)
    # A ring sum of n_phi terms can overflow where every coefficient is
    # finite; scaling by 2^-e <= 1/n_phi first is exact above the subnormals.
    e = math.frexp(n_phi)[1]
    F = np.fft.rfft(np.ldexp(rule.weights * samples, -e).reshape(-1, n_phi))
    # Ring sums of table * Re F and * Im F per packed column.  numpy adds the
    # rings of a C-contiguous block 2+ columns wide in sequence, as per-degree
    # np.sum did; degree 1 (pairwise np.sum) and order 0 (BLAS dots) stay apart.
    sums, buffer = np.zeros((2, len(k))), np.empty(rule.n_points)
    blocks = -(-(len(k) - 3) // n_phi)
    for i in range(blocks):
        start, stop = (3 + (len(k) - 3) * j // blocks for j in (i, i + 1))
        block = buffer[: len(table) * (stop - start)].reshape(len(table), -1)
        for part, out in zip((F.real, F.imag), sums):
            np.take(part, m[start:stop], axis=1, out=block, mode="clip")  # unbuffered
            np.multiply(table[:, start:stop], block, out=block)
            np.add.reduce(block, axis=0, out=out[start:stop])
    sums[:, 2:3] = [np.sum(table[:, 2:3] * f[:, 1:2], axis=0) for f in (F.real, F.imag)]
    np.multiply(sums, [[math.sqrt(2.0)], [-math.sqrt(2.0)]], out=sums, where=m > 0)
    sums[0, m == 0] = [table[:, j * (j + 1) // 2] @ F.real[:, 0] for j in range(M + 1)]
    coeffs = np.empty((M + 1) * (M + 1))
    coeffs[k * (k + 1) - m] = sums[1]  # at m = 0, then overwritten by c_{k,0}
    coeffs[k * (k + 1) + m] = sums[0]
    np.ldexp(np.divide(coeffs, rule.rho, out=coeffs), e, out=coeffs)
    return HarmonicCoefficients(M=M, radius=rule.rho, values=coeffs)


def synthesize(coeffs: HarmonicCoefficients, target: CubatureRule) -> np.ndarray:
    """Evaluate the represented function at the points of a rule.

    ``target`` is a CubatureRule of degree at least ``coeffs.M``, on the
    coefficients' sphere within 1e-9 relative.  This is synthesize_stack's
    one-set case.  At free points, use basis_matrix(M, points, radius) @
    values.
    """
    return synthesize_stack([coeffs], target)[0]


def synthesize_stack(
    stack: Sequence[HarmonicCoefficients], target: CubatureRule
) -> np.ndarray:
    """(B, T) values of B coefficient sets of one degree and radius at a rule's points.

    On ring r of n_phi = 2(rule.M + 1) longitudes, degree k's part is
    irfft(X_k[r], n_phi, norm="forward"), unscaled so that nothing can
    overflow, for X_k[r, m] = Q_k^m (c_{k,m} - i c_{k,-m}) / sqrt(2) at
    0 < m <= k and Q_k^0 c_{k,0} at m = 0: the packed table's degree-k
    columns times the packed orders (_ring_inputs).  X_k adds to orders 0..k
    of an (order, set, ring) array in ascending k; the FFT reads a (set,
    ring, order) copy.  Row b is synthesize(stack[b], target) bit for bit.
    """
    table, cosines, sines = _ring_inputs(stack, target)
    M, B, n_phi = stack[0].M, len(stack), 2 * (target.M + 1)
    Q, X = table.T[:, None], (cosines - 1j * sines).T[:, :, None]
    sums = np.zeros((M + 1, B, len(table)), dtype=complex)
    for k in range(M + 1):
        cols = slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)
        sums[: k + 1] += Q[cols] * X[cols]
    spectra = np.zeros((B, len(table), n_phi // 2 + 1), dtype=complex)
    spectra[:, :, : M + 1] = sums.transpose(1, 2, 0)
    del sums  # before the FFT allocates its output
    fields = np.fft.irfft(spectra, n=n_phi, norm="forward").reshape(B, -1)
    return np.divide(fields, stack[0].radius, out=fields)


def apply_forward(
    symbol: SphericalSymbol, x: HarmonicCoefficients
) -> HarmonicCoefficients:
    """Forward operator: scale row k by a_k, retag from radius R to rho."""
    if radius_mismatch(x.radius, symbol.R):
        raise ValidationError(
            f"input lives on radius {x.radius}, symbol expects R={symbol.R}"
        )
    if x.M > symbol.M:
        raise ValidationError(f"input degree {x.M} exceeds symbol degree {symbol.M}")
    return x.scaled_by_degree(symbol.a[: x.M + 1], radius=symbol.rho)


_PRESET_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]+)\s*\))?\s*$")


# Bad radii can overflow a_k: SphericalSymbol names them, and then any
# non-finite entry, so numpy's warnings would only precede its one error.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def symbol_preset(name: str, R: float, rho: float, M: int) -> SphericalSymbol:
    """Build one of the named symbol families for degrees 0..M.

    Presets
    -------
    ``sst``            : a_k = (k+1)/rho * (R/rho)^k  (needs rho >= 2R)
    ``sgg``            : a_k = (k+1)(k+2)/rho^2 * (R/rho)^k  (needs rho >= 3R)
    ``geometric(q)``   : a_k = q^{-k}, q > 1
    ``polynomial(s)``  : a_k = (k+1)^{-s}, s > 0

    The parameter of ``geometric`` and ``polynomial`` is part of the name,
    as in "geometric(1.48)"; a number that does not parse is reported
    before a parameter on another preset.  Nonmonotone parameterizations
    are rejected.
    """
    check_degree(M)
    match = _PRESET_RE.match(name)
    if match is None:
        raise ValidationError(f"unparseable symbol preset {name!r}")
    tag, inline = match.group(1), match.group(2)
    param = None
    if inline is not None:
        try:
            param = float(inline)
        except ValueError:
            raise ValidationError(f"bad parameter in symbol preset {name!r}") from None
        if tag not in ("geometric", "polynomial"):
            raise ValidationError(f"preset '{tag}' takes no parameter")

    k = np.arange(M + 1, dtype=float)
    if tag == "sst":
        a = (k + 1) / rho * (R / rho) ** k
    elif tag == "sgg":
        a = (k + 1) * (k + 2) / (rho * rho) * (R / rho) ** k
    elif tag == "geometric":
        if param is None or not param > 1:
            raise ValidationError(f"geometric preset needs base q > 1, got {param!r}")
        a = param ** (-k)
    elif tag == "polynomial":
        if param is None or not param > 0:
            raise ValidationError(
                f"polynomial preset needs exponent s > 0, got {param!r}"
            )
        a = (k + 1) ** (-param)
    else:
        raise ValidationError(f"unknown symbol preset {tag!r}")
    return SphericalSymbol(a=a, R=float(R), rho=float(rho), name=name.strip())

