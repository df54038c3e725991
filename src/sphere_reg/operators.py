"""Spectral analysis/synthesis and the truncated forward operator.

Functions on a sphere of radius r are represented by their coefficients in
the orthonormal basis (1/r) Y_{k,j}(./r); the radius travels with the
coefficients so the 1/R versus 1/rho scaling can never be mixed up by a
caller.  The forward operator acts diagonally per degree through its
symbol sequence.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .harmonics import basis_matrix, radius_mismatch
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
        if not self.radius > 0:
            raise ValidationError(f"radius must be positive, got {self.radius!r}")
        expected = (self.M + 1) * (self.M + 1)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (expected,):
            raise ValidationError(
                f"need {expected} coefficients for M={self.M}, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def row(self, k: int) -> np.ndarray:
        """Coefficients of degree k, i.e. j = 1..2k+1."""
        return self.values[k * k : (k + 1) * (k + 1)]

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


def _rule_basis(rule: CubatureRule, M: int) -> np.ndarray:
    """Basis values (1/rho) Y_{k,j}(t_i/rho) at the rule points, memoized."""
    cached = rule._cache.get(M)
    if cached is None:
        cached = basis_matrix(M, rule.points, rule.rho)
        rule._cache[M] = cached
    return cached


def analyze(samples: np.ndarray, rule: CubatureRule, M: int) -> HarmonicCoefficients:
    """Discrete Fourier coefficients of sampled data on the rule's sphere.

    Computes c_{k,j} = sum_i w_i (1/rho) Y_{k,j}(t_i/rho) samples_i for all
    k <= M.  Exact whenever the samples come from a spherical polynomial of
    degree <= M, because the rule integrates products of two such
    polynomials without error.

    Raises ValidationError if the rule is not exact to degree 2M or the
    sample count does not match the rule.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (rule.n_points,):
        raise ValidationError(
            f"expected {rule.n_points} samples, got shape {samples.shape}"
        )
    if rule.exactness_degree < 2 * M:
        raise ValidationError(
            f"rule exact to degree {rule.exactness_degree} cannot analyze M={M}"
        )
    B = _rule_basis(rule, M)
    coeffs = B.T @ (rule.weights * samples)
    return HarmonicCoefficients(M=M, radius=rule.rho, values=coeffs)


def synthesize(coeffs: HarmonicCoefficients, pts: np.ndarray) -> np.ndarray:
    """Evaluate the represented function at points on the coefficients' sphere.

    ``pts`` is an (T, 3) array; every row must lie on the sphere of
    ``coeffs.radius`` within 1e-9 relative.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    B = basis_matrix(coeffs.M, pts, coeffs.radius)
    return B @ coeffs.values


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


def symbol_preset(
    name: str,
    R: float,
    rho: float,
    M: int,
    *,
    q: float | None = None,
    s: float | None = None,
) -> SphericalSymbol:
    """Build one of the named symbol families for degrees 0..M.

    Presets
    -------
    ``sst``            : a_k = (k+1)/rho * (R/rho)^k  (needs rho >= 2R)
    ``sgg``            : a_k = (k+1)(k+2)/rho^2 * (R/rho)^k  (needs rho >= 3R)
    ``geometric(q)``   : a_k = q^{-k}, q > 1
    ``polynomial(s)``  : a_k = (k+1)^{-s}, s > 0

    The parameter may be embedded in the name ("geometric(1.48)") or passed
    as the keyword ``q``/``s``.  Nonmonotone parameterizations are rejected.
    """
    match = _PRESET_RE.match(name)
    if match is None:
        raise ValidationError(f"unparseable symbol preset {name!r}")
    tag, inline = match.group(1), match.group(2)
    if inline is not None:
        try:
            inline_val = float(inline)
        except ValueError:
            raise ValidationError(f"bad parameter in symbol preset {name!r}") from None
        if tag == "geometric":
            q = inline_val
        elif tag == "polynomial":
            s = inline_val
        else:
            raise ValidationError(f"preset '{tag}' takes no parameter")

    k = np.arange(M + 1, dtype=float)
    if tag == "sst":
        a = (k + 1) / rho * (R / rho) ** k
    elif tag == "sgg":
        a = (k + 1) * (k + 2) / (rho * rho) * (R / rho) ** k
    elif tag == "geometric":
        if q is None or not q > 1:
            raise ValidationError(f"geometric preset needs base q > 1, got {q!r}")
        a = q ** (-k)
    elif tag == "polynomial":
        if s is None or not s > 0:
            raise ValidationError(f"polynomial preset needs exponent s > 0, got {s!r}")
        a = (k + 1) ** (-s)
    else:
        raise ValidationError(f"unknown symbol preset {tag!r}")
    return SphericalSymbol(a=a, R=float(R), rho=float(rho), name=name.strip())

