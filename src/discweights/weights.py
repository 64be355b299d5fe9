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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .geometry import area_carleson, area_top, mod1

__all__ = [
    "TreeWeight",
    "DyadicDomain",
    "WeightCertificate",
    "OscillationReport",
    "cell_areas",
    "subtree_sums",
    "ancestor_max",
    "values_at",
    "bp_constant",
    "b1_constant",
    "maximal",
    "osc_constants",
    "c_const",
    "random_log_walk",
    "random_domain",
]


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
        if _bad_rows(values):
            raise ValueError(_NOT_POSITIVE)
        self.theta = mod1(theta)
        self.depth = int(depth)
        self.values = values

    @classmethod
    def constant(cls, value: float, depth: int, theta=0) -> "TreeWeight":
        vals = np.full(1 << (depth + 1), float(value))
        return cls(theta, depth, vals)

    def power(self, alpha: float) -> "TreeWeight":
        return TreeWeight(self.theta, self.depth, self.values ** alpha)

    # -- evaluation at points of the disc ---------------------------------

    def eval_polar(self, modulus: np.ndarray, angle: np.ndarray) -> np.ndarray:
        """Value of the weight at disc points given in polar form (see values_at)."""
        return values_at(self.values[None], [self.theta], self.depth, modulus, angle)[0]


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
    scale, n = _point_levels(np.asarray(modulus, dtype=np.float64), depth)
    theta = np.array([float(t) for t in thetas]).reshape((-1,) + (1,) * n.ndim)
    rows = np.arange(len(values)).reshape(theta.shape)
    return values[rows, _node_ids(np.asarray(angle, dtype=np.float64) - theta, scale, n)]


def _point_levels(modulus: np.ndarray, depth: int):
    """(scale, n) = (2^k as a float, 1 << k) for each point's tree level k,
    the leaf level N for points deeper than it."""
    d = 1.0 - modulus
    with np.errstate(divide="ignore"):
        k = np.ceil(-np.log2(np.maximum(d, 1e-300))).astype(np.int64) - 1
    k = np.maximum(k, 0)
    # repair the guess on exact powers of two and rounding slips
    k = np.where(d > np.exp2(-k.astype(float)), k - 1, k)
    k = np.where(d <= np.exp2(-(k + 1).astype(float)), k + 1, k)
    k = np.minimum(np.maximum(k, 0), depth)
    return np.exp2(k.astype(float)), np.int64(1) << k


def _node_ids(rel: np.ndarray, scale: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Node ids of the points at angle - theta = rel on their `_point_levels`."""
    j = np.ceil((rel % 1.0) * scale).astype(np.int64) - 1
    return n + np.where(j < 0, n - 1, np.minimum(j, n - 1))


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


_NOT_POSITIVE = "weight values must be positive and finite"
_OFF_GRID = "weight and domain live on different grids"


def _bad_rows(values: np.ndarray) -> np.ndarray:
    """Per tree of one tree or a stack: True where a value is not positive and finite."""
    body = values[..., 1:]
    # a NaN carries through min, so it fails the first test
    return ~((body.min(-1) > 0) & (body.max(-1) < np.inf))


def _check_same_grid(w: TreeWeight, domain: Optional[DyadicDomain]):
    if domain is not None and (domain.depth != w.depth or domain.theta != w.theta):
        raise ValueError(_OFF_GRID)


def _name_first_bad(thetas: Sequence, bad, message: str):
    """Raise ValueError(message) naming the offset of the first row flagged in bad."""
    if np.any(bad):
        raise ValueError(f"offset {thetas[int(np.argmax(bad))]} failed: {message}")


def _mask(domain: Optional[DyadicDomain], depth: int) -> np.ndarray:
    """The domain's cell mask; for None, every cell (slot 0 is never one)."""
    return np.arange(1 << (depth + 1)) > 0 if domain is None else domain.mask


# ---------------------------------------------------------------------------
# integrals and averages
# ---------------------------------------------------------------------------

def _tree_arrays(w: TreeWeight, domain: Optional[DyadicDomain]):
    """(thetas, depth, values, mask) of one tree and its domain, the
    arguments of the stacked cores, each array kept 1-D."""
    _check_same_grid(w, domain)
    return [w.theta], w.depth, w.values, _mask(domain, w.depth)


def _checked(thetas: Sequence, values: np.ndarray) -> np.ndarray:
    """values, one tree or a stack, once every row is positive and finite;
    the first row that is not raises a ValueError naming its offset."""
    _name_first_bad(thetas, _bad_rows(values), _NOT_POSITIVE)
    return values


def _tree_rows(thetas: Sequence, depth: int, values: np.ndarray) -> list:
    """One TreeWeight per offset, each a view of its row of a `_checked`
    stack; the rows skip the per-tree checks the stack has just passed."""
    rows = []
    for theta, row in zip(thetas, np.atleast_2d(_checked(thetas, values))):
        tree = object.__new__(TreeWeight)
        tree.theta, tree.depth, tree.values = mod1(theta), int(depth), row
        rows.append(tree)
    return rows


def _floats(x) -> list:
    """A constant of one tree or a stack as a list of floats, one per tree."""
    return np.atleast_1d(x).tolist()


# The tree kernels and constants below take one tree, a (2^(N+1),) array,
# or a stack of T trees, a (T, 2^(N+1)) array (and one mask, or one per
# tree), and work row by row: each row equals its one-tree result bitwise.
# They index the node axis through the transposed view or `...`, so a
# single tree stays 1-D; its constant is a 0-d array.

class _TreeWork:
    """A tree workspace: a buffer of one tree or a stack, shape
    (..., 2^(N+1)), with its level views built once.

    Per parent level k < N it keeps the parents, their left and right
    children and the first 2^k entries of a (..., 2^(N-1)) scratch array,
    each indexing the node axis first.  The kernels run in place on the
    buffer through ufuncs with out=, so a caller that reuses one workspace
    for many calls on one shape (the factorization series) builds no slice
    and no temporary per level; subtree_sums, ancestor_max and
    maximal_values are one-shot uses of it.
    """

    __slots__ = ("buf", "depth", "levels")

    def __init__(self, buf: np.ndarray, depth: int):
        self.buf, self.depth = buf, depth
        o = buf.T
        s = np.empty(buf.shape[:-1] + ((1 << depth) >> 1,), dtype=buf.dtype).T
        self.levels = [(o[1 << k : 2 << k], o[2 << k : 4 << k : 2],
                        o[(2 << k) + 1 : 4 << k : 2], s[: 1 << k]) for k in range(depth)]

    def add_subtrees(self) -> None:
        """subtree_sums in place, bottom-up."""
        for parent, left, right, scratch in reversed(self.levels):
            np.add(left, right, out=scratch)
            np.add(parent, scratch, out=parent)

    def max_ancestors(self) -> None:
        """ancestor_max in place, top-down; slot 0 becomes NaN."""
        self.buf.T[0] = np.nan
        # each child from its parent: a broadcast (2^k, 2, ...) view is slower
        for parent, left, right, _ in self.levels:
            np.maximum(parent, left, out=left)
            np.maximum(parent, right, out=right)

    def maximal(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """The maximal function of the buffer, which holds |f|, in place:
        ancestor_max(subtree_sums(cell masses, zeroed off the mask) / box
        areas).  Returns the buffer."""
        buf = self.buf
        buf *= cell_areas(self.depth)  # slot 0 feeds no sum and ends NaN
        if mask is not None:
            np.copyto(buf, 0.0, where=~mask)
        self.add_subtrees()
        buf /= box_area_vector(self.depth)
        self.max_ancestors()
        return buf


def subtree_sums(cell_masses: np.ndarray, depth: int) -> np.ndarray:
    """For each node, the sum of cell masses over its subtree (its box)."""
    work = _TreeWork(np.array(cell_masses, dtype=np.float64), depth)
    work.add_subtrees()
    return work.buf


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
    return float(_bp_values(w.values, p, _mask(domain, w.depth), w.depth))


def _bp_values(values: np.ndarray, p: float, mask: np.ndarray, depth: int) -> np.ndarray:
    """bp_constant, p > 1, of one tree or a stack, each restricted to its mask."""
    s1 = subtree_sums(np.where(mask, values * cell_areas(depth), 0.0), depth)
    s2 = subtree_sums(np.where(mask, values ** (-1.0 / (p - 1)) * cell_areas(depth), 0.0), depth)
    areas = box_area_vector(depth)
    with np.errstate(invalid="ignore"):
        prod = (s1 / areas) * (s2 / areas) ** (p - 1)
    live = s1 > 0
    live[..., 0] = False
    return np.max(np.where(live, prod, -np.inf), axis=-1)


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
    """Array version of `maximal` for one tree or a stack; f is taken through |f|.

    Bitwise ancestor_max(subtree_sums(cell masses of |f|) / box areas), all
    in one buffer.
    """
    work = _TreeWork(np.abs(values, dtype=np.float64), depth)
    return work.maximal(None if domain is None else domain.mask)


def ancestor_max(avg: np.ndarray, depth: int) -> np.ndarray:
    """For each node, the largest of avg over its ancestors-or-self; slot 0 is NaN."""
    work = _TreeWork(np.array(avg), depth)
    work.max_ancestors()
    return work.buf


def b1_constant(w: TreeWeight, domain: Optional[DyadicDomain] = None) -> float:
    """sup over domain cells of (restricted maximal of w) / w."""
    _check_same_grid(w, domain)
    return float(_b1_values(w.values, _mask(domain, w.depth), w.depth))


def _b1_values(values: np.ndarray, mask: np.ndarray, depth: int) -> np.ndarray:
    """b1_constant of one tree or a stack, each restricted to its mask."""
    # zeroing the values off the mask gives the restricted maximal function bitwise
    m = maximal_values(np.where(mask, values, 0.0), depth)
    return np.max(np.where(mask, m / values, -np.inf), axis=-1)


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
    c = c_const(w, domain)
    mask = _mask(domain, w.depth)
    n = int(np.count_nonzero(mask))
    return OscillationReport(c, float(_log_pair_sup(w.values, mask, w.depth)), n * (n - 1) // 2,
                             True)


def c_const(w: TreeWeight, domain: Optional[DyadicDomain] = None) -> float:
    """The first oscillation constant of osc_constants, alone: the largest
    max/min ratio of w over the up to three (domain) cells meeting
    T_{3/4}(I), over every arc I above the leaf level; 1 when none has a
    cell."""
    _check_same_grid(w, domain)
    return float(_c_values(w.values, _mask(domain, w.depth), w.depth))


def _c_values(values: np.ndarray, mask: np.ndarray, depth: int) -> np.ndarray:
    """c_const of one tree or a stack, each restricted to its mask."""
    # each arc i = 1 .. 2^N - 1 against its children 2i and 2i + 1, the
    # values masked once with -inf (for the max) and +inf (for the min)
    half = 1 << depth
    hi, lo = np.where(mask, values, -np.inf), np.where(mask, values, np.inf)
    hi_v = np.maximum(np.maximum(hi[..., 1:half], hi[..., 2::2]), hi[..., 3::2])
    lo_v = np.minimum(np.minimum(lo[..., 1:half], lo[..., 2::2]), lo[..., 3::2])
    present = mask[..., 1:half] | mask[..., 2::2] | mask[..., 3::2]
    ratio = np.ones(hi_v.shape)
    np.divide(hi_v, lo_v, out=ratio, where=present)
    return np.max(ratio, axis=-1, initial=1.0)


def _log_pair_sup(v: np.ndarray, mask: np.ndarray, depth: int) -> np.ndarray:
    """sup over pairs of masked cells of |log v(a) - log v(b)| / (1 + beta(a, b)).

    Each side of a pair set is summarised by (max log v, max -log v) over
    its cells, -inf for an empty side; the largest gap between sides A and
    B is then max(A[0] + B[1], A[1] + B[0]), finite or -inf, never NaN.
    """
    ends = np.full(np.broadcast_shapes(v.shape, mask.shape) + (2,), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):  # slot 0 is unused
        np.copyto(ends[..., 0], np.log(v), where=mask)
    np.negative(ends[..., 0], out=ends[..., 1], where=mask)
    # gaps[..., R - 1]: largest gap over the pairs with beta <= R under one node
    gaps = np.full(ends.shape[:-2] + (depth,), -np.inf)
    # sub[..., i, r, :]: ends over the cells of the subtree of node i at most
    # r levels below it, for the nodes i of the level below the current one
    sub = ends[..., 1 << depth :, None, :]
    for k in range(depth - 1, -1, -1):
        u = ends[..., 1 << k : 1 << (k + 1), None, :]
        left, right = sub[..., 0::2, :, :], sub[..., 1::2, :, :]
        # pairs under u: (u or left) against right, and left against (u or right)
        u_left = np.maximum(u, left)
        gap = u_left + right[..., ::-1]
        np.maximum(gap, left + np.maximum(u, right)[..., ::-1], out=gap)
        np.maximum(gaps[..., : depth - k], gap.max(axis=(-3, -1)), out=gaps[..., : depth - k])
        sub = np.concatenate([u, np.maximum(u_left, right)], axis=-2)
    return np.max(gaps / (1.0 + np.arange(1, depth + 1)), axis=-1, initial=0.0)


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
