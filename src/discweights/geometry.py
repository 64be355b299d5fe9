"""Dyadic geometry on the unit disc.

Angles are measured in turns (fractions of a revolution) and kept as exact
rationals wherever a containment decision depends on them.  Floats are
binary rationals, so ``Fraction(x)`` loses nothing and the cell level of
a boundary distance below is decided exactly.

Conventions, fixed once here and relied on everywhere else:

* A grid arc at level k >= 0 with offset theta is the half-open arc
  (theta + j/2^k, theta + (j+1)/2^k] mod 1, for j in {0, ..., 2^k - 1}.
  Arcs contain their right endpoint and not their left one, so the level-k
  arcs tile the circle exactly.
* The Carleson box over an arc I of length ell is
  S(I) = {z : z/|z| in I, 1 - |z| < ell}, and for rho in (0, 1] the top part
  T_rho(I) = {z in S(I) : 1 - |z| > (1 - rho) ell}.  T(I) means T_{1/2}(I).
* Areas are normalized two-dimensional Lebesgue measure on the disc (the
  whole disc has area 1), so an annular sector of angular width a turns
  between radii r1 < r2 has area a * (r2^2 - r1^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

AngleLike = Union[int, float, Fraction]

__all__ = [
    "UnitArc",
    "GridNode",
    "DiscPoint",
    "mod1",
    "as_fraction",
    "area_carleson",
    "area_top",
    "rho_pseudo",
    "beta_hyperbolic",
    "containing_level",
]


def as_fraction(x: AngleLike) -> Fraction:
    """Exact conversion; floats are dyadic rationals so nothing is lost."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def mod1(x: AngleLike) -> Fraction:
    """Reduce an angle in turns to [0, 1), exactly; one already there is
    returned as it is."""
    f = as_fraction(x)
    if 0 <= f.numerator < f.denominator:
        return f
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class UnitArc:
    """Arc on the unit circle: (center - length/2, center + length/2] in turns."""

    center: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", mod1(self.center))
        object.__setattr__(self, "length", as_fraction(self.length))
        if not (0 < self.length <= 1):
            raise ValueError(f"arc length must lie in (0, 1], got {self.length}")

    @cached_property
    def left(self) -> Fraction:
        return mod1(self.center - self.length / 2)


@dataclass(frozen=True)
class GridNode:
    """Arc of the shifted dyadic grid: level k, position j, offset theta."""

    theta: Fraction
    level: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "theta", mod1(self.theta))
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not (0 <= self.index < (1 << self.level)):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def left(self) -> Fraction:
        return mod1(self.theta + Fraction(self.index, 1 << self.level))

    def arc(self) -> UnitArc:
        return UnitArc(center=self.left + self.length / 2, length=self.length)


@dataclass(frozen=True)
class DiscPoint:
    """Point of the open unit disc in polar form, angle in turns (exact)."""

    modulus: float
    angle: Fraction

    def __post_init__(self):
        if not (0 <= self.modulus < 1):
            raise ValueError(f"modulus must lie in [0, 1), got {self.modulus}")
        object.__setattr__(self, "angle", mod1(self.angle))

    @property
    def z(self) -> complex:
        return self.modulus * cmath.exp(2j * cmath.pi * float(self.angle))


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------

def area_carleson(length):
    """Normalized area of S(I) for an arc of the given length (in turns).

    S(I) spans radii (1 - ell, 1), so A = ell * (1 - (1 - ell)^2).  Works on
    floats and Fractions alike; with Fractions the result is exact.
    """
    one = length - length + 1  # 1 in the arithmetic of the argument's type
    return length * (one - (one - length) ** 2)


def area_top(length, rho=None):
    """Normalized area of T_rho(I): radii (1 - ell, 1 - (1-rho) ell].

    rho = 1/2 gives the top half T(I); rho = 1 gives all of S(I).  The
    default keeps the argument's arithmetic (exact for Fractions).
    """
    one = length - length + 1
    if rho is None:
        rho = one / 2
    inner = one - length
    outer = one - (one - rho) * length
    return length * (outer * outer - inner * inner)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def rho_pseudo(z: complex, w: complex) -> float:
    """Pseudohyperbolic distance |(w - z) / (1 - conj(w) z)|."""
    return abs((w - z) / (1 - w.conjugate() * z))


def beta_hyperbolic(z: complex, w: complex) -> float:
    """Smoothed hyperbolic distance (1/2) log((1 + rho^2) / (1 - rho^2)).

    The squared pseudohyperbolic distance is used inside the logarithm; this
    is the variant the rest of the package calibrates against.
    """
    r2 = rho_pseudo(z, w) ** 2
    if r2 >= 1.0:
        return math.inf
    return 0.5 * math.log((1 + r2) / (1 - r2))


# ---------------------------------------------------------------------------
# cell levels
# ---------------------------------------------------------------------------

def containing_level(depth_to_boundary: AngleLike) -> int:
    """The unique k >= 0 with 2^{-k-1} < d <= 2^{-k}, for d in (0, 1]."""
    d = as_fraction(depth_to_boundary)
    return _ratio_level(d.numerator, d.denominator)


def _ratio_level(p: int, q: int) -> int:
    """containing_level of d = p/q (q > 0), in integers: 2^k p <= q < 2^{k+1} p.

    Shifting p by the bit-length gap gives it q's bit length, so either
    it is at most q (and one more shift exceeds q) or one shift less fits.
    """
    if not 0 < p <= q:
        raise ValueError(f"need 0 < d <= 1, got {Fraction(p, q)}")
    k = q.bit_length() - p.bit_length()
    return k - ((p << k) > q)
