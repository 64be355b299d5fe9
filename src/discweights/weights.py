"""Piecewise-constant weights on a finite dyadic tree over the disc.

A depth-N tree over the grid with offset theta assigns one positive value
to every grid arc of level 0..N.  The value on an arc I at level k < N is
the weight on the top half T(I); at the leaf level N it is the weight on
the whole box S(I).  Those cells tile the disc, so every integral below is
a finite sum of value * cell area terms and is exact up to float rounding.

Nodes are stored heap style: the arc at level k, position j has id
2^k + j, so the ids of level k occupy the contiguous range [2^k, 2^{k+1})
and the children of id i are 2i and 2i+1.  Index 0 is unused.

A domain is any set of cells.  Every cell is itself a union of top halves
(a leaf box is the union of the top halves of all its descendants), so
arbitrary cell sets model the admissible regions: unions of top halves
closed under nothing in particular.  Restricted constants run over the
boxes whose intersection with the domain has positive area.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import GridNode, area_carleson, area_top, mod1

__all__ = [
    "TreeWeight",
    "DyadicDomain",
    "WeightCertificate",
    "OscillationReport",
    "node_id",
    "level_starts",
    "cell_areas",
    "subtree_sums",
    "ancestor_max",
    "values_at",
    "box_integral",
    "bp_constant",
    "b1_constant",
    "maximal",
    "weak_type_ratio",
    "reverse_holder",
    "osc_constants",
    "random_log_walk",
    "random_domain",
]


def node_id(level: int, index: int) -> int:
    return (1 << level) + index


def level_starts(depth: int) -> np.ndarray:
    return np.array([1 << k for k in range(depth + 2)], dtype=np.int64)


@lru_cache(maxsize=64)
def cell_areas(depth: int) -> np.ndarray:
    """Float areas of all cells of a depth-N tree, indexed by node id.

    Level k < N contributes A(T(I)); the leaf level contributes A(S(I)).
    The entries sum to 1 (the cells tile the disc).
    """
    size = 1 << (depth + 1)
    areas = np.zeros(size)
    for k in range(depth + 1):
        ell = Fraction(1, 1 << k)
        a = area_top(ell) if k < depth else area_carleson(ell)
        areas[1 << k : 1 << (k + 1)] = float(a)
    return areas


@lru_cache(maxsize=64)
def cell_areas_exact(depth: int) -> tuple:
    """Exact rational cell areas, same layout as cell_areas."""
    out = [Fraction(0)] * (1 << (depth + 1))
    for k in range(depth + 1):
        ell = Fraction(1, 1 << k)
        a = area_top(ell) if k < depth else area_carleson(ell)
        for j in range(1 << k):
            out[(1 << k) + j] = a
    return tuple(out)


@lru_cache(maxsize=64)
def node_levels(depth: int) -> np.ndarray:
    size = 1 << (depth + 1)
    ids = np.arange(size, dtype=np.int64)
    ids[0] = 1
    return np.floor(np.log2(ids)).astype(np.int64)


class TreeWeight:
    """Positive weight, one value per node of a depth-N tree."""

    __slots__ = ("theta", "depth", "values")

    def __init__(self, theta, depth: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (1 << (depth + 1),):
            raise ValueError(
                f"need {1 << (depth + 1)} slots for depth {depth}, got {values.shape}"
            )
        body = values[1:]
        if not np.all(np.isfinite(body)) or np.any(body <= 0):
            raise ValueError("weight values must be positive and finite")
        self.theta = mod1(theta)
        self.depth = int(depth)
        self.values = values

    @classmethod
    def constant(cls, value: float, depth: int, theta=0) -> "TreeWeight":
        vals = np.full(1 << (depth + 1), float(value))
        return cls(theta, depth, vals)

    @classmethod
    def from_node_values(cls, theta, depth, pairs: Iterable[tuple]) -> "TreeWeight":
        """Build from ((level, index), value) pairs; unset nodes get 1."""
        vals = np.ones(1 << (depth + 1))
        for (level, index), v in pairs:
            vals[node_id(level, index)] = v
        return cls(theta, depth, vals)

    def value_at(self, level: int, index: int) -> float:
        return float(self.values[node_id(level, index)])

    def power(self, alpha: float) -> "TreeWeight":
        return TreeWeight(self.theta, self.depth, self.values ** alpha)

    def node(self, level: int, index: int) -> GridNode:
        return GridNode(self.theta, level, index)

    # -- evaluation at points of the disc ---------------------------------

    def eval_polar(self, modulus: np.ndarray, angle: np.ndarray) -> np.ndarray:
        """Value of the weight at disc points given in polar form (see values_at)."""
        return values_at(self.values[None], [self.theta], self.depth, modulus, angle)[0]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for k in range(self.depth + 1):
            start = 1 << k
            for j in range(1 << k):
                nodes.append([k, j, repr(float(self.values[start + j]))])
        return {
            "theta": f"{self.theta.numerator}/{self.theta.denominator}",
            "depth": self.depth,
            "nodes": nodes,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TreeWeight":
        num, den = data["theta"].split("/")
        theta = Fraction(int(num), int(den))
        depth = int(data["depth"])
        vals = np.ones(1 << (depth + 1))
        for k, j, s in data["nodes"]:
            vals[node_id(int(k), int(j))] = float(s)
        return cls(theta, depth, vals)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "TreeWeight":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def values_at(values: np.ndarray, thetas: Sequence, depth: int,
              modulus: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Values of T depth-N trees with offsets thetas at disc points in polar form.

    values is (T, 2^(N+1)), one row per tree; the result has shape
    (T,) + the points' shape.  Each point's level is found once for all
    rows, its index within the level per row from that row's offset.
    Points deeper than the leaf level fall in leaf boxes.  The lookup is
    float based; it is meant for quadrature at interior sample points, not
    for boundary-exact decisions.
    """
    modulus = np.asarray(modulus, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    d = 1.0 - modulus
    with np.errstate(divide="ignore"):
        k = np.ceil(-np.log2(np.maximum(d, 1e-300))).astype(np.int64) - 1
    k = np.maximum(k, 0)
    # repair the guess on exact powers of two and rounding slips
    k = np.where(d > np.exp2(-k.astype(float)), k - 1, k)
    k = np.where(d <= np.exp2(-(k + 1).astype(float)), k + 1, k)
    k = np.minimum(np.maximum(k, 0), depth)
    theta = np.array([float(t) for t in thetas]).reshape((-1,) + (1,) * k.ndim)
    rel = (angle - theta) % 1.0
    j = np.ceil(rel * np.exp2(k.astype(float))).astype(np.int64) - 1
    n = np.int64(1) << k
    j = np.where(j < 0, n - 1, np.minimum(j, n - 1))
    rows = np.arange(len(values)).reshape(theta.shape)
    return values[rows, n + j]


class DyadicDomain:
    """A set of tree cells, playing the role of a union of top halves."""

    __slots__ = ("theta", "depth", "mask")

    def __init__(self, theta, depth: int, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (1 << (depth + 1),):
            raise ValueError("mask size does not match depth")
        if not mask[1:].any():
            raise ValueError("domain must contain at least one cell")
        mask = mask.copy()
        mask[0] = False
        self.theta = mod1(theta)
        self.depth = int(depth)
        self.mask = mask

    @classmethod
    def full(cls, depth: int, theta=0) -> "DyadicDomain":
        mask = np.ones(1 << (depth + 1), dtype=bool)
        return cls(theta, depth, mask)

    @classmethod
    def from_generators(cls, theta, depth: int, nodes: Iterable[tuple]) -> "DyadicDomain":
        """Domain from (level, index) generator arcs, one cell each.

        Distinct generators have disjoint cells (top halves never overlap
        across distinct arcs), so no normalization is needed.
        """
        mask = np.zeros(1 << (depth + 1), dtype=bool)
        for level, index in nodes:
            if level > depth:
                raise ValueError("generator deeper than the tree")
            mask[node_id(level, index)] = True
        return cls(theta, depth, mask)

    def cell_count(self) -> int:
        return int(self.mask.sum())

    def area(self) -> float:
        return float(cell_areas(self.depth)[self.mask].sum())

    def generator_nodes(self) -> list:
        ids = np.nonzero(self.mask)[0]
        lv = node_levels(self.depth)[ids]
        return [(int(k), int(i - (1 << k))) for k, i in zip(lv, ids)]


@dataclass
class WeightCertificate:
    """One verified inequality: measured quantity against a pinned bound.

    sense "le" certifies measured <= bound, sense "ge" the reverse (used
    for window lower ends).
    """

    quantity: str
    bound: float
    measured: float
    inputs: dict = field(default_factory=dict)
    sense: str = "le"

    @property
    def passed(self) -> bool:
        if self.sense == "le":
            return bool(self.measured <= self.bound)
        return bool(self.measured >= self.bound)

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "bound": self.bound,
            "measured": self.measured,
            "sense": self.sense,
            "passed": self.passed,
            "inputs": {k: _plain(v) for k, v in sorted(self.inputs.items())},
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _check_same_grid(w: TreeWeight, domain: Optional[DyadicDomain]):
    if domain is not None and (domain.depth != w.depth or domain.theta != w.theta):
        raise ValueError("weight and domain live on different grids")


# ---------------------------------------------------------------------------
# integrals and averages
# ---------------------------------------------------------------------------

def subtree_sums(cell_masses: np.ndarray, depth: int) -> np.ndarray:
    """For each node, the sum of cell masses over its subtree (its box)."""
    out = np.array(cell_masses, dtype=np.float64)
    for k in range(depth - 1, -1, -1):
        lo, mid, hi = 1 << k, 1 << (k + 1), 1 << (k + 2)
        out[lo:mid] += out[mid:hi:2] + out[mid + 1 : hi : 2]
    return out


def _cell_masses(values: np.ndarray, depth: int, domain: Optional[DyadicDomain]) -> np.ndarray:
    masses = values * cell_areas(depth)
    masses[0] = 0.0
    if domain is not None:
        masses = np.where(domain.mask, masses, 0.0)
    return masses


def box_integral(w: TreeWeight, level: int, index: int, power: float = 1.0,
                 domain: Optional[DyadicDomain] = None) -> float:
    """Integral of w^power over S(I) intersected with the domain."""
    _check_same_grid(w, domain)
    vals = w.values if power == 1.0 else w.values ** power
    sums = subtree_sums(_cell_masses(vals, w.depth, domain), w.depth)
    return float(sums[node_id(level, index)])


@lru_cache(maxsize=64)
def box_area_vector(depth: int) -> np.ndarray:
    """A(S(I)) per node id, read-only; full boxes regardless of any domain."""
    ell = np.exp2(-node_levels(depth).astype(float))
    areas = ell * (1.0 - (1.0 - ell) ** 2)
    areas[0] = np.nan
    areas.setflags(write=False)
    return areas


def bp_constant(w: TreeWeight, p: float, domain: Optional[DyadicDomain] = None) -> float:
    """Restricted Bekolle-Bonami constant over boxes meeting the domain.

    sup over I with A(S(I) and Omega) > 0 of
        (1/A(S(I))) int_{S(I) cap Omega} w
      * ((1/A(S(I))) int_{S(I) cap Omega} w^{-1/(p-1)})^{p-1}.

    Averages are normalized by the full box area A(S(I)) even when the
    domain cuts into the box.  p = 1 delegates to b1_constant.
    """
    if p == 1:
        return b1_constant(w, domain)
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_same_grid(w, domain)
    depth = w.depth
    s1 = subtree_sums(_cell_masses(w.values, depth, domain), depth)
    s2 = subtree_sums(_cell_masses(w.values ** (-1.0 / (p - 1)), depth, domain), depth)
    areas = box_area_vector(depth)
    with np.errstate(invalid="ignore"):
        prod = (s1 / areas) * (s2 / areas) ** (p - 1)
    live = s1 > 0
    live[0] = False
    return float(np.max(prod[live]))


def maximal(f: TreeWeight, domain: Optional[DyadicDomain] = None) -> TreeWeight:
    """Dyadic maximal function of f (restricted to the domain if given).

    Per cell: the largest average (1/A(S(I))) int_{S(I) cap Omega} f over
    the ancestors-or-self I of the cell.  On domain cells this is the
    restricted maximal operator; elsewhere it equals the maximal function
    of f extended by zero off the domain.  The result is a TreeWeight on
    the full tree (strictly positive whenever the domain is nonempty,
    since the root box always contributes).
    """
    _check_same_grid(f, domain)
    out = maximal_values(f.values, f.depth, domain)
    return TreeWeight(f.theta, f.depth, out)


def maximal_values(values: np.ndarray, depth: int,
                   domain: Optional[DyadicDomain] = None) -> np.ndarray:
    """Array version of `maximal`; f is taken through |f|."""
    sums = subtree_sums(_cell_masses(np.abs(values), depth, domain), depth)
    return ancestor_max(sums / box_area_vector(depth), depth)


def ancestor_max(avg: np.ndarray, depth: int) -> np.ndarray:
    """For each node, the largest of avg over its ancestors-or-self; slot 0 is NaN."""
    out = np.empty_like(avg)
    out[0] = np.nan
    out[1] = avg[1]
    for k in range(1, depth + 1):
        lo, hi = 1 << k, 1 << (k + 1)
        out[lo:hi] = np.maximum(np.repeat(out[lo >> 1 : hi >> 1], 2), avg[lo:hi])
    return out


def b1_constant(w: TreeWeight, domain: Optional[DyadicDomain] = None) -> float:
    """sup over domain cells of (restricted maximal of w) / w."""
    _check_same_grid(w, domain)
    m = maximal_values(w.values, w.depth, domain)
    mask = domain.mask if domain is not None else np.ones(len(m), dtype=bool)
    mask = mask.copy()
    mask[0] = False
    return float(np.max(m[mask] / w.values[mask]))


def weak_type_ratio(w: TreeWeight, f: np.ndarray, p: float, lam: float,
                    domain: Optional[DyadicDomain] = None) -> float:
    """lambda^p w{Mf > lambda} / ||f||^p_{L^p(w)}, all over the domain."""
    _check_same_grid(w, domain)
    depth = w.depth
    f = np.asarray(f, dtype=np.float64)
    m = maximal_values(f, depth, domain)
    mask = domain.mask if domain is not None else np.ones(len(m), dtype=bool)
    mask = mask.copy()
    mask[0] = False
    areas = cell_areas(depth)
    super_mass = float(np.sum(np.where(mask & (m > lam), w.values * areas, 0.0)))
    fnorm = float(np.sum(np.where(mask, np.abs(f) ** p * w.values * areas, 0.0)))
    if fnorm == 0:
        raise ValueError("f vanishes on the domain")
    return lam ** p * super_mass / fnorm


def reverse_holder(w: TreeWeight, r_grid: Optional[Sequence[float]] = None,
                   domain: Optional[DyadicDomain] = None) -> dict:
    """Reverse Holder ratios sup_I (avg w^r)^{1/r} / (avg w) per exponent r.

    Averages run over S(I) cap Omega normalized by the intersection's own
    area, over boxes meeting the domain.
    """
    _check_same_grid(w, domain)
    if r_grid is None:
        r_grid = [1.0 + k / 8 for k in range(1, 17)]
    depth = w.depth
    area_in = subtree_sums(_cell_masses(np.ones_like(w.values), depth, domain), depth)
    live = area_in > 0
    live[0] = False
    s1 = subtree_sums(_cell_masses(w.values, depth, domain), depth)
    base = s1[live] / area_in[live]
    out = {}
    for r in r_grid:
        sr = subtree_sums(_cell_masses(w.values ** r, depth, domain), depth)
        ratio = (sr[live] / area_in[live]) ** (1.0 / r) / base
        out[float(r)] = float(np.max(ratio))
    return out


# ---------------------------------------------------------------------------
# oscillation constants
# ---------------------------------------------------------------------------

@dataclass
class OscillationReport:
    c_const: float       # sup of w(z)/w(zeta) over pairs in a common T_{3/4}(I)
    l_const: float       # sup of |log w(z) - log w(zeta)| / (1 + beta_dyadic)
    pairs: int           # domain-cell pairs the l_const supremum covers
    exact: bool          # always True; kept for readers of the report


def osc_constants(w: TreeWeight, domain: Optional[DyadicDomain] = None) -> OscillationReport:
    """Oscillation constants of a weight over the (restricted) tree.

    The first constant scans, for every arc I above the leaf level, the up
    to three cells meeting T_{3/4}(I) (the arc's own top half and its
    children's); restricted variants skip cells outside the domain.

    The second is the exact supremum over all pairs of domain cells, at
    every depth.  Pairs are split by their common ancestor u and by the
    relative depth R of their deeper cell below u (so beta = R).  Per node
    and per R <= depth - level(u) the running max and min of log w over the
    domain cells of each subtree, down to R levels, are built bottom-up,
    one numpy pass per level.  The pairs under u with beta <= R are u
    against either child subtree and left against right, so their largest
    gap is a max minus a min of those sides; dividing it by 1 + R never
    overstates a pair and meets every pair at R = its beta.  Work and
    memory are O(N depth) for N nodes (the level arrays hold about 2N
    entries in all), with no pair list and no n x n temporary.  `pairs`
    counts the n (n - 1) / 2 pairs of the n domain cells the supremum
    covers; `exact` is always True and kept for compatibility.
    """
    _check_same_grid(w, domain)
    depth = w.depth
    v = w.values
    mask = domain.mask if domain is not None else np.ones_like(v, dtype=bool)

    # each arc i = 1 .. 2^N - 1 against its children 2i and 2i + 1
    half = 1 << depth
    trio_vals = np.stack([v[1:half], v[2::2], v[3::2]])
    trio_mask = np.stack([mask[1:half], mask[2::2], mask[3::2]])
    hi_v = np.where(trio_mask, trio_vals, -np.inf).max(axis=0)
    lo_v = np.where(trio_mask, trio_vals, np.inf).min(axis=0)
    present = trio_mask.any(axis=0)
    c_best = float(np.max(hi_v[present] / lo_v[present], initial=1.0))

    n = int(np.count_nonzero(mask[1:]))
    return OscillationReport(c_best, _log_pair_sup(v, mask, depth),
                             n * (n - 1) // 2, True)


def _log_pair_sup(v: np.ndarray, mask: np.ndarray, depth: int) -> float:
    """sup over pairs of masked cells of |log v(a) - log v(b)| / (1 + beta(a, b)).

    Each side of a pair set is summarised by (max log v, max -log v) over
    its cells, -inf for an empty side; the largest gap between sides A and
    B is then max(A[0] + B[1], A[1] + B[0]), finite or -inf, never NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # slot 0 is unused
        logv = np.log(v)
    ends = np.where(mask[:, None], np.stack([logv, -logv], axis=1), -np.inf)
    # gaps[R - 1]: largest gap over the pairs with beta <= R under one node
    gaps = np.full(depth, -np.inf)
    # sub[i, r]: ends over the cells of the subtree of node i at most r
    # levels below it, for the nodes i of the level below the current one
    sub = ends[1 << depth :, None, :]
    for k in range(depth - 1, -1, -1):
        u = ends[1 << k : 1 << (k + 1), None, :]
        left, right = sub[0::2], sub[1::2]
        # pairs under u: (u or left) against right, and left against (u or right)
        u_left = np.maximum(u, left)
        gap = u_left + right[..., ::-1]
        np.maximum(gap, left + np.maximum(u, right)[..., ::-1], out=gap)
        np.maximum(gaps[: depth - k], gap.max(axis=(0, 2)), out=gaps[: depth - k])
        sub = np.concatenate([u, np.maximum(u_left, right)], axis=1)
    return float(np.max(gaps / (1.0 + np.arange(1, depth + 1)), initial=0.0))


# ---------------------------------------------------------------------------
# instance generators (used by tests and the command line harness)
# ---------------------------------------------------------------------------

def random_log_walk(depth: int, seed=None, sigma: float = 0.5, theta=0,
                    rng=None) -> TreeWeight:
    """Weight whose log performs a bounded random walk down the tree.

    Each child's log value differs from its parent's by a uniform step in
    [-sigma, sigma], so log ratios across one generation are at most sigma
    and the weight oscillates boundedly at every scale.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    size = 1 << (depth + 1)
    logv = np.zeros(size)
    logv[1] = rng.uniform(-sigma, sigma)
    for k in range(1, depth + 1):
        lo, hi = 1 << k, 1 << (k + 1)
        steps = rng.uniform(-sigma, sigma, hi - lo)
        logv[lo:hi] = np.repeat(logv[lo >> 1 : hi >> 1], 2) + steps
    return TreeWeight(theta, depth, np.exp(logv))


def random_domain(depth: int, seed=None, density: float = 0.5, theta=0,
                  rng=None) -> DyadicDomain:
    """Random union of top halves: each cell joins independently.

    Always keeps at least one cell (the root's top half is forced in when
    the draw comes out empty).
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    size = 1 << (depth + 1)
    mask = rng.uniform(size=size) < density
    mask[0] = False
    if not mask.any():
        mask[1] = True
    return DyadicDomain(theta, depth, mask)
