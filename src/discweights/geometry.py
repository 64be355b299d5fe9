"""Dyadic geometry on the unit disc.

Angles are measured in turns (fractions of a revolution) and kept as exact
rationals wherever a containment decision depends on them.  Floats are
binary rationals, so ``Fraction(x)`` loses nothing and every arc membership
test below is decided exactly.

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
from typing import Union

AngleLike = Union[int, float, Fraction]

__all__ = [
    "UnitArc",
    "GridNode",
    "DiscPoint",
    "disc_point",
    "mod1",
    "as_fraction",
    "area_carleson",
    "area_top",
    "node_point",
    "node_arc",
    "rho_pseudo",
    "beta_hyperbolic",
    "containing_level",
    "containing_node",
    "lca_level",
    "beta_dyadic_nodes",
    "beta_dyadic",
    "arc_contains_angle",
    "arc_contains_arc",
    "arc_hull",
    "min_predecessor_theta",
    "min_predecessor_cont",
    "hyplemma_ratio",
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

    @property
    def left(self) -> Fraction:
        return mod1(self.center - self.length / 2)

    @property
    def right(self) -> Fraction:
        return mod1(self.center + self.length / 2)


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

    def parent(self) -> "GridNode":
        if self.level == 0:
            raise ValueError("root has no parent")
        return GridNode(self.theta, self.level - 1, self.index >> 1)

    def children(self) -> tuple["GridNode", "GridNode"]:
        return (
            GridNode(self.theta, self.level + 1, 2 * self.index),
            GridNode(self.theta, self.level + 1, 2 * self.index + 1),
        )


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


def disc_point(modulus: float, angle: AngleLike) -> DiscPoint:
    return DiscPoint(float(modulus), mod1(angle))


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
# points attached to arcs
# ---------------------------------------------------------------------------

def node_point(node: GridNode) -> DiscPoint:
    """The distinguished point of a grid arc: modulus 1 - |I|, central angle.

    Its distance from the circle equals the arc length exactly, so the arc
    that the point's radial cell projects onto is the arc itself.
    """
    ell = node.length
    return DiscPoint(1.0 - float(ell), node.left + ell / 2)


def node_arc(z: DiscPoint) -> UnitArc:
    """The boundary arc I_z centered at z/|z| with length 1 - |z|.

    Undefined (full circle returned) at the origin where 1 - |z| = 1.
    """
    d = 1 - as_fraction(z.modulus)
    return UnitArc(center=z.angle, length=d)


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
# cell assignment and the dyadic metric
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


def containing_node(theta: AngleLike, z: DiscPoint) -> GridNode:
    """The grid arc I_z whose radial cell contains z.

    The level is fixed by 2^{-k-1} < 1 - |z| <= 2^{-k} and the position by
    the half-open arc convention: z with angle exactly on a grid endpoint
    belongs to the arc lying to the left (counterclockwise below) of it.
    """
    d = 1 - as_fraction(z.modulus)
    return containing_grid_arc_of_angle(theta, containing_level(d), z.angle)


def lca_level(a: GridNode, b: GridNode) -> int:
    """Level of the deepest common grid ancestor of two nodes (same offset)."""
    if a.theta != b.theta:
        raise ValueError("nodes live on different grids")
    k = min(a.level, b.level)
    ja = a.index >> (a.level - k)
    jb = b.index >> (b.level - k)
    return k - (ja ^ jb).bit_length()


def beta_dyadic_nodes(a: GridNode, b: GridNode) -> int:
    """Dyadic distance between two cells: max level minus common-ancestor level."""
    return max(a.level, b.level) - lca_level(a, b)


def beta_dyadic(theta: AngleLike, z: DiscPoint, w: DiscPoint) -> int:
    """Dyadic distance log2(|P(I_z, I_w)| / min(|I_z|, |I_w|)) on the grid.

    I_z, I_w are the containing grid arcs of the two points and P their
    smallest common grid predecessor, so the value is a nonnegative integer.
    """
    return beta_dyadic_nodes(containing_node(theta, z), containing_node(theta, w))


# ---------------------------------------------------------------------------
# arc containment and hulls (all exact)
# ---------------------------------------------------------------------------

def arc_contains_angle(arc: UnitArc, angle: AngleLike) -> bool:
    if arc.length >= 1:
        return True
    r = mod1(as_fraction(angle) - arc.left)
    return 0 < r <= arc.length


def arc_contains_arc(outer: UnitArc, inner: UnitArc) -> bool:
    """Whether inner is a subset of outer, as half-open arcs mod 1."""
    if outer.length >= 1:
        return True
    if inner.length > outer.length:
        return False
    r = mod1(inner.left - outer.left)
    return r + inner.length <= outer.length


def arc_hull(a: UnitArc, b: UnitArc) -> UnitArc:
    """Smallest arc containing both arcs (full circle if none shorter works).

    Candidates: sweep from a's left end far enough to cover b, and the same
    with roles swapped; the shorter valid sweep wins.
    """
    if arc_contains_arc(a, b):
        return a
    if arc_contains_arc(b, a):
        return b

    def sweep(first: UnitArc, second: UnitArc) -> Fraction:
        r = mod1(second.left - first.left)
        return max(first.length, r + second.length)

    length = min(sweep(a, b), sweep(b, a))
    if length >= 1:
        return UnitArc(center=Fraction(1, 2), length=Fraction(1))
    if sweep(a, b) <= sweep(b, a):
        return UnitArc(center=a.left + length / 2, length=length)
    return UnitArc(center=b.left + length / 2, length=length)


def min_predecessor_theta(theta: AngleLike, arc: UnitArc) -> GridNode:
    """Smallest grid arc (deepest level) of offset theta containing the arc.

    The root always qualifies, so the result is well defined.  A level-m
    grid arc can contain an arc of length ell only when ell <= 2^{-m} and
    the left endpoint sits no closer than ell to the next grid point
    clockwise, i.e. ((left - theta) mod 2^{-m}) <= 2^{-m} - ell.
    """
    theta = mod1(theta)
    if arc.length >= 1:
        return GridNode(theta, 0, 0)
    m_max = containing_level(arc.length)
    if Fraction(1, 1 << m_max) < arc.length:  # not a power of two: strict room
        m_max -= 1
    for m in range(m_max, 0, -1):
        step = Fraction(1, 1 << m)
        rel = mod1(arc.left - theta)
        if rel % step <= step - arc.length:
            # find the index from the arc's right endpoint (always interior)
            return containing_grid_arc_of_angle(theta, m, arc.right)
    return GridNode(theta, 0, 0)


def containing_grid_arc_of_angle(theta: AngleLike, level: int, angle: AngleLike) -> GridNode:
    """The level-`level` grid arc containing the given angle (half-open)."""
    theta = mod1(theta)
    n = 1 << level
    r = mod1(as_fraction(angle) - theta) * n
    # j = ceil(r) - 1 for r > 0; angle == theta wraps to the last arc
    if r == 0:
        j = n - 1
    else:
        j = -((-r.numerator) // r.denominator) - 1
    return GridNode(theta, level, j)


def min_predecessor_cont(z: DiscPoint, w: DiscPoint) -> UnitArc:
    """Smallest arc containing I_z and I_w (grid-free predecessor)."""
    return arc_hull(node_arc(z), node_arc(w))


# ---------------------------------------------------------------------------
# comparison quantity for the hyperbolic/dyadic calibration
# ---------------------------------------------------------------------------

def hyplemma_ratio(z: DiscPoint, w: DiscPoint) -> float:
    """|1 - conj(z) w| divided by max(1 - |z|^2, 1 - |w|^2, |z* - w*|).

    z*, w* are the boundary projections.  The ratio is bounded between
    absolute constants; tests pin the empirical envelope.
    """
    zc, wc = z.z, w.z
    zs = cmath.exp(2j * cmath.pi * float(z.angle))
    ws = cmath.exp(2j * cmath.pi * float(w.angle))
    num = abs(1 - zc.conjugate() * wc)
    den = max(1 - abs(zc) ** 2, 1 - abs(wc) ** 2, abs(zs - ws))
    return num / den
