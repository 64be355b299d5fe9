"""Averaging dyadic constructions over grid offsets.

A continuous region here is a finite union of top halves T(A) of arbitrary
(typically non-dyadic, overlapping) boundary arcs A.  In polar coordinates
each T(A) is a rectangle: depth band (|A|/2, |A|] times the arc, where
depth means 1 - |z|.  Unions of such rectangles decompose exactly into
disjoint polar rectangles by cutting the depth axis at all band endpoints
and merging angular intervals per elementary band; the region keeps those
bands in exact rationals.

For a grid offset theta, the good nodes are the grid arcs I whose top half
meets the region in at least A(T(I))/18 of its area.  Averaging a weight
over those intersections produces a tree weight on the offset's grid,
restricted to the good cells; extensions of these restrictions are then
combined across offsets by a geometric mean in theta.  Restriction treats
all offsets at once in integers: every endpoint it meets (generator arcs
and half-lengths, the grid lines of all offsets, node bands down to
2^-(depth+1)) is an integer over one common denominator L, so clips are
integer min and max, areas are integers over L^3, and the 1/18 threshold
is decided without rounding.  The integers are int64 while 18 L^3 < 2^63
(L is 13,440 to 80,640 for the bundled regions at depth 6 or 7 with 64
or 128 offsets) and Python ints beyond, as for arcs built from floats,
whose denominators reach 2^53.

The averaged weight, a product of geometric means of tree weights, is
constant on the cells of one refinement: tree depth bands times the
pieces between the finest grid lines of all offsets and the surveyed arc
endpoints.  So its continuous B_p and B_1 constants are exact sums of
cell value times cell area (and minima over cells), not mesh samples.

The offset measure of predecessor scales: for an arc of length ell with
2^{-N} <= ell < 2^{-N+1}, the chance that a uniformly shifted grid
contains the arc inside a level-m grid arc is 1 - 2^m ell (nonnegative for
m <= N, and 1 at m = 0 where the grid arc is the whole circle).  The
events nest in m, so the measure of {smallest containing grid arc has
level exactly m} is the difference of consecutive containment chances.
The same chances, at the circular distance of two points, give the mean
over offsets of their dyadic distance in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .extension import _extend_b1, _extend_bp
from .factorization import _factor_bho_full
from .geometry import (
    GridNode,
    UnitArc,
    _ratio_level,
    beta_hyperbolic,
    mod1,
)
from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _checked,
    _name_first_bad,
    _node_ids,
    _plain,
    _point_levels,
    _tree_rows,
    bp_constant as tree_bp_constant,
)

__all__ = [
    "PolarRect",
    "ContinuousDomain",
    "theta_measure_spectrum",
    "GoodNodes",
    "good_nodes_many",
    "good_nodes",
    "dyadic_restriction",
    "restriction_certificate",
    "geo_mean_weight",
    "default_arc_family",
    "restricted_box_product",
    "avg_beta_check",
    "ContinuousExtensionResult",
    "extend_continuous",
]


# ---------------------------------------------------------------------------
# exact region algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarRect:
    """Depth band (d_lo, d_hi] times angular interval (start, start+length]."""

    d_lo: Fraction
    d_hi: Fraction
    ang_start: Fraction
    ang_len: Fraction

    def area(self) -> Fraction:
        r_out = 1 - self.d_lo
        r_in = 1 - self.d_hi
        return self.ang_len * (r_out * r_out - r_in * r_in)


def _arc_intervals(left: Fraction, length: Fraction):
    """Arc (left, left+length] as intervals inside [0, 1], cut at the wrap."""
    if length >= 1:
        return [(Fraction(0), Fraction(1))]
    l = mod1(left)
    r = l + length
    if r <= 1:
        return [(l, r)]
    return [(l, Fraction(1)), (Fraction(0), r - 1)]


def _union(intervals):
    if not intervals:
        return []
    ivs = sorted(intervals)
    out = [list(ivs[0])]
    for s, e in ivs[1:]:
        if s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def _intersect(a, b):
    out = []
    for s1, e1 in a:
        for s2, e2 in b:
            s, e = max(s1, s2), min(e1, e2)
            if s < e:
                out.append((s, e))
    return out


class ContinuousDomain:
    """Union of top halves of arbitrary boundary arcs, kept exactly."""

    def __init__(self, generators: Iterable[UnitArc]):
        self.generators = list(generators)
        if not self.generators:
            raise ValueError("domain needs at least one generator arc")
        breaks = set()
        for g in self.generators:
            breaks.add(g.length / 2)
            breaks.add(g.length)
        self._dbreaks = sorted(breaks)
        self._bands = []
        cuts = [Fraction(0)] + self._dbreaks
        for lo, hi in zip(cuts, cuts[1:]):
            active = [g for g in self.generators if g.length / 2 <= lo and hi <= g.length]
            if active:
                ang = _union([iv for g in active for iv in _arc_intervals(g.left, g.length)])
                self._bands.append((lo, hi, ang))

    def denominator(self) -> int:
        """Least common denominator of every band and interval endpoint."""
        return math.lcm(*(g.left.denominator for g in self.generators),
                        *((g.length / 2).denominator for g in self.generators))

    def scaled_bands(self, denom: int):
        """The bands with every endpoint times denom, a multiple of
        denominator(), as (lo, hi, [(start, end), ...]) in Python ints."""
        return [(int(lo * denom), int(hi * denom),
                 [(int(s * denom), int(e * denom)) for s, e in ang])
                for lo, hi, ang in self._bands]

    def pieces(self):
        out = []
        for lo, hi, ang in self._bands:
            for s, e in ang:
                out.append(PolarRect(lo, hi, s, e - s))
        return out

    def clip_to_top(self, node: GridNode):
        """Disjoint rectangles making up T(node) intersected with the region."""
        ell = node.length
        node_iv = _arc_intervals(node.left, ell)
        out = []
        for lo, hi, ang in self._bands:
            lo2, hi2 = max(lo, ell / 2), min(hi, ell)
            if lo2 >= hi2:
                continue
            for s, e in _intersect(ang, node_iv):
                out.append(PolarRect(lo2, hi2, s, e - s))
        return out

    def clip_to_box(self, arc: UnitArc):
        """Disjoint rectangles making up S(arc) intersected with the region."""
        arc_iv = _arc_intervals(arc.left, arc.length)
        out = []
        for lo, hi, ang in self._bands:
            hi2 = min(hi, arc.length)
            if lo >= hi2:
                continue
            for s, e in _intersect(ang, arc_iv):
                out.append(PolarRect(lo, hi2, s, e - s))
        return out


def rect_quadrature(rect: PolarRect, fn, nr: int = 4, na: int = 4) -> float:
    """Midpoint-rule integral of fn(r, angle) over the rectangle.

    The depth band is split evenly and each sub-band contributes its exact
    sub-area times the mean of fn at the midpoints, so constants integrate
    exactly.  This is the one-rectangle case of _quadrature_many.
    """
    return float(_quadrature_many(*_rect_bounds([rect]), fn, nr, na)[0])


def _rect_bounds(rects) -> list:
    """(d_lo, d_hi, ang_start, ang_len) of polar rectangles, four float arrays."""
    return [np.array([float(x) for x in col])
            for col in zip(*((r.d_lo, r.d_hi, r.ang_start, r.ang_len) for r in rects))]


def _quadrature_many(d_lo, d_hi, a0, alen, fn, nr: int, na: int) -> np.ndarray:
    """rect_quadrature of P rectangles given by (P,) float bounds, with one
    evaluation of fn on all of their midpoints.

    Every float operation is the one-rectangle operation along a leading
    axis, and the mean and the sum reduce the last axis as they would for
    one rectangle, so entry i is bitwise the integral of rectangle i alone.
    """
    edges = np.linspace(d_lo, d_hi, nr + 1, axis=-1)
    dmid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    amid = a0[:, None] + (np.arange(na) + 0.5) * alen[:, None] / na
    sub_areas = alen[:, None] * ((1 - edges[:, :-1]) ** 2 - (1 - edges[:, 1:]) ** 2)
    shape = (len(d_lo), nr, na)
    r = np.broadcast_to((1.0 - dmid)[:, :, None], shape).ravel()
    a = np.broadcast_to((amid % 1.0)[:, None, :], shape).ravel()
    vals = np.reshape(fn(r, a), shape)
    return np.sum(sub_areas * np.mean(vals, axis=2), axis=1)


# ---------------------------------------------------------------------------
# continuous weights: any positive fn(r, angle) on float64 arrays
# ---------------------------------------------------------------------------

# trees per block of geo_mean_weight's sums: the (trees x points) node ids
# and logs are held for one block at a time
GEO_BLOCK = 16


def geo_mean_weight(thetas: Sequence, depth: int, stacks) -> Callable:
    """Pointwise product over stacks of (values, power) pairs, each values
    an (offsets, 2^(N+1)) array of depth-N trees, row i on the grid of
    offset thetas[i], of exp(mean over rows of log value) ** power.

    A point's value depends only on its tree level and its angle, so fn
    finds the distinct (level, angle) pairs of its points (r and a
    broadcast against each other) and their node in every row once, reads
    each stack there and spreads the results back.  The rows are taken
    GEO_BLOCK at a time, each point's running sum of logs carried from one
    block to the next, so every sum is still taken tree by tree in order.
    """
    theta = np.array([float(t) for t in thetas])[:, None]
    rows = np.arange(len(theta))[:, None]

    def fn(r, a):
        r, a = np.broadcast_arrays(r, a)
        r, a, shape = r.ravel(), a.ravel(), r.shape
        scale, n = _point_levels(r, depth)
        order = np.lexsort((a, n))
        n_s, a_s = n[order], a[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (n_s[1:] != n_s[:-1]) | (a_s[1:] != a_s[:-1])
        where = np.empty(len(order), dtype=np.intp)
        where[order] = np.cumsum(new) - 1
        pick = order[new]
        a, scale, n = a[pick], scale[pick], n[pick]
        sums = [None] * len(stacks)
        for lo in range(0, len(theta), GEO_BLOCK):
            block = slice(lo, lo + GEO_BLOCK)
            node = _node_ids(a - theta[block], scale, n)
            for i, (values, _) in enumerate(stacks):
                logs = np.log(values[rows[block], node])
                if sums[i] is not None:
                    logs[0] += sums[i]
                # summed tree by tree, the order of each point's own sum
                sums[i] = np.cumsum(logs, axis=0, out=logs)[-1].copy()
        g = 1.0
        for acc, (_, power) in zip(sums, stacks):
            g = g * np.exp(acc / len(theta)) ** power
        return g[where].reshape(shape)

    return fn


# ---------------------------------------------------------------------------
# offset measure of predecessor scales
# ---------------------------------------------------------------------------

def theta_measure_spectrum(arc: UnitArc) -> dict:
    """Exact offset-measure of the smallest containing grid arc's scale.

    For an arc of length in [2^-N, 2^{-N+1}) the key k means the smallest
    grid arc containing it (as theta varies uniformly) has length 2^{k-N},
    k scales above the arc's own dyadic scale N.  Values are Fractions
    summing to exactly 1, one row of _spectrum_buckets.  The key 0 is always
    present, at measure 0 unless the arc is the full circle: containment at
    the arc's own scale is a null event (exact alignment) when the length
    is dyadic, and impossible otherwise (level-N arcs are then shorter).
    """
    p, q = arc.length.numerator, arc.length.denominator
    dtype = np.int64 if q.bit_length() <= 30 else object  # no p 2^m reaches 2^63
    keys, buckets = _spectrum_buckets(np.array([p], dtype), np.array([q], dtype))
    pairs = zip(keys[0].tolist(), buckets[0].tolist())
    return {0: Fraction(0), **{k: Fraction(c, q) for k, c in pairs if c > 0}}


def _spectrum_buckets(p: np.ndarray, q: np.ndarray):
    """(keys, buckets) of arcs of lengths p / q in lowest terms, 0 < p <= q,
    one row each: buckets[:, m] is q times the measure of key keys[:, m],
    the difference of the nested containment chances at levels m and m + 1,
    max(0, q - 2^m p) over q (1 at m = 0).  The level n counts the m >= 1
    with q - 2^m p >= 0; every bucket past n is 0, and keys count down from
    n, or n + 1 when the length is not 2^-n."""
    m = np.arange(1, int(q.max()).bit_length() + 2)
    gaps = q[:, None] - (p[:, None] << m)
    n = np.count_nonzero(gaps >= 0, axis=1)
    chances = np.concatenate([q[:, None], np.maximum(gaps, 0)], axis=1)
    return (n + (p << n != q))[:, None] + 1 - m, chances[:, :-1] - chances[:, 1:]


# ---------------------------------------------------------------------------
# good nodes and dyadic restriction
# ---------------------------------------------------------------------------

GOOD_FRACTION = Fraction(1, 18)

# offsets restricted in one pass; bounds the (offsets, candidates, slots)
# arrays of the good-node scan and the midpoint mesh of the quadrature
OFFSET_BLOCK = 256

# finest grid lines of the offset survey's windows taken in one group;
# bounds its (windows, offsets, lines) and (windows, pieces) arrays
SURVEY_LINES = 1 << 15


@dataclass(frozen=True)
class GoodNodes:
    """The good nodes of T offsets, exactly, over one common denominator.

    Piece bounds are integers over `denom` and areas integers over denom^3.
    Nodes are sorted by (offset row, node id 2^k + j); node i owns pieces
    start[i] to start[i + 1], in the order ContinuousDomain.clip_to_top
    lists them (band, region interval, node interval).  The integer arrays
    are int64 where no product can reach 2^63 and Python ints (dtype
    object) otherwise.
    """

    denom: int
    offset: np.ndarray  # (G,) offset row
    node: np.ndarray    # (G,) node id
    area: np.ndarray    # (G,) intersection area times denom^3
    start: np.ndarray   # (G + 1,) piece ranges
    d_lo: np.ndarray    # (P,) depth band of each piece, times denom
    d_hi: np.ndarray
    ang_lo: np.ndarray  # (P,) angular interval of each piece, times denom
    ang_hi: np.ndarray


def _level_slots(bands, denom: int, step: int):
    """(d_lo, d_hi, depth factor, start, end, node interval) for every place
    a top half of length step can meet the bands, in clip order.  A
    piece's area is its angular length times the depth factor."""
    out = []
    for lo, hi, ang in bands:
        d_lo, d_hi = max(lo, step // 2), min(hi, step)
        if d_lo < d_hi:
            factor = (denom - d_lo) ** 2 - (denom - d_hi) ** 2
            out += [(d_lo, d_hi, factor, s, e, which) for s, e in ang for which in (0, 1)]
    return out


def good_nodes_many(thetas, domain: ContinuousDomain, depth: int) -> GoodNodes:
    """Grid arcs of every offset whose top half meets the region in at least
    GOOD_FRACTION of its area, in one integer pass per level.

    Every endpoint (generator arcs and half-lengths, the offsets' grid
    lines, node bands down to 2^-(depth+1)) is an integer over one common
    denominator L, so clipping is integer min and max, and goodness
    compares integers over L^3.  Only levels within one scale of some
    generator can qualify (the depth bands must overlap), so a level takes
    a few candidate indices per generator and offset, a (T, C) array, and
    clips them against its slots as (T, C, M).
    """
    thetas = [mod1(t) for t in thetas]
    num, den = GOOD_FRACTION.numerator, GOOD_FRACTION.denominator
    L = math.lcm(domain.denominator(), 1 << (depth + 1), *(t.denominator for t in thetas))
    dt = object if max(num, den) * L ** 3 >= 1 << 63 else np.int64
    th = np.array([t.numerator * (L // t.denominator) for t in thetas], dtype=dt)
    bands = domain.scaled_bands(L)
    gens = [(int(g.left * L), int(g.length * L)) for g in domain.generators]
    nodes = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0, dt),)]
    pieces = [(np.zeros(0, np.int64),) + (np.zeros(0, dt),) * 4]
    found = 0
    for k in range(depth + 1):
        step = L >> k
        cols = [(gl - th)[:, None] // step + np.arange(-(-gn // step) + 3)
                for gl, gn in gens if step // 2 < gn < 2 * step]
        slots = _level_slots(bands, L, step)
        if not cols or not slots:
            continue
        cand = np.sort(np.concatenate(cols, axis=1).astype(np.int64) % (1 << k), axis=1)
        fresh = np.ones(cand.shape, dtype=bool)
        fresh[:, 1:] = cand[:, 1:] != cand[:, :-1]
        # node arcs (left, left + step] cut at the wrap; level 0 is the circle
        left = (th[:, None] + cand.astype(dt) * step) % L if k else np.zeros(cand.shape, dt)
        right = left + step
        zero = np.zeros_like(left)
        node_lo = np.stack([left, zero], axis=-1)
        node_hi = np.stack([np.minimum(right, L), np.maximum(right - L, zero)], axis=-1)
        d_lo, d_hi, factor, s1, e1, which = (np.array(col, dtype=dt) for col in zip(*slots))
        which = which.astype(np.intp)
        s = np.maximum(node_lo[:, :, which], s1)
        e = np.minimum(node_hi[:, :, which], e1)
        valid = (s < e) & fresh[:, :, None]
        inter = np.where(valid, (e - s) * factor, 0).sum(axis=2)
        top = step * ((L - step // 2) ** 2 - (L - step) ** 2)
        good = (inter > 0) & (den * inter >= num * top)
        t, c = np.nonzero(good)
        pt, pc, pm = np.nonzero(valid & good[:, :, None])
        ordinal = np.cumsum(good.ravel()).reshape(good.shape) - 1 + found
        nodes.append((t, (1 << k) + cand[t, c], inter[t, c]))
        pieces.append((ordinal[pt, pc], d_lo[pm], d_hi[pm], s[pt, pc, pm], e[pt, pc, pm]))
        found += len(t)
    offset, node, area = (np.concatenate(col) for col in zip(*nodes))
    owner, *bounds = (np.concatenate(col) for col in zip(*pieces))
    # levels came in order and each level in (offset, index) order
    order = np.argsort(offset, kind="stable")
    rank = np.empty(found, np.int64)
    rank[order] = np.arange(found)
    owner = rank[owner]
    by_node = np.argsort(owner, kind="stable")
    start = np.zeros(found + 1, np.int64)
    np.cumsum(np.bincount(owner, minlength=found), out=start[1:])
    return GoodNodes(L, offset[order], node[order], area[order], start,
                     *(b[by_node] for b in bounds))


def good_nodes(theta, domain: ContinuousDomain, depth: int):
    """Grid arcs whose top half meets the region in >= GOOD_FRACTION of its area.

    The one-offset view of good_nodes_many, in exact rationals: a list of
    (GridNode, clip pieces, intersection area) sorted by node id.
    """
    g = good_nodes_many([theta], domain, depth)
    L, theta = g.denom, mod1(theta)
    out = []
    for i, (nid, area) in enumerate(zip(g.node.tolist(), g.area.tolist())):
        span = slice(g.start[i], g.start[i + 1])
        pieces = [PolarRect(Fraction(lo, L), Fraction(hi, L), Fraction(s, L), Fraction(e - s, L))
                  for lo, hi, s, e in zip(*(b[span].tolist()
                                            for b in (g.d_lo, g.d_hi, g.ang_lo, g.ang_hi)))]
        level = nid.bit_length() - 1
        out.append((GridNode(theta, level, nid - (1 << level)), pieces, Fraction(area, L ** 3)))
    return out


def _over(num: np.ndarray, den: int) -> np.ndarray:
    """float(Fraction(n, den)) for every n in num (any shape), 0 <= n <= den."""
    if num.dtype != object and den < 1 << 53:
        return num / den  # both are exact doubles, so the quotient rounds once
    return np.array([n / den for n in num.ravel().tolist()], dtype=np.float64).reshape(num.shape)


def _restrict(w: Callable, thetas, domain: ContinuousDomain, depth: int):
    """dyadic_restriction for every offset: (values, masks), two
    (offsets, 2^(N+1)) arrays, one row per offset.

    Each block of OFFSET_BLOCK offsets takes one good_nodes_many pass and
    one evaluation of w on the 4 x 4 midpoint mesh of all of its pieces.  A
    node's integral adds its pieces' quadratures in clip order, so every
    row is bitwise the one-offset result.  An offset without good nodes,
    or whose averages are not positive and finite, raises a ValueError
    naming it.
    """
    thetas = list(thetas)
    vals = np.ones((len(thetas), 1 << (depth + 1)))
    mask = np.zeros(vals.shape, dtype=bool)
    for lo in range(0, len(thetas), OFFSET_BLOCK):
        block = thetas[lo:lo + OFFSET_BLOCK]
        g = good_nodes_many(block, domain, depth)
        _name_first_bad(block, np.bincount(g.offset, minlength=len(block)) == 0,
                        "no good nodes: region and grid scales do not meet")
        q = _quadrature_many(*(_over(b, g.denom) for b in
                               (g.d_lo, g.d_hi, g.ang_lo, g.ang_hi - g.ang_lo)), w, 4, 4)
        first, sizes = g.start[:-1], np.diff(g.start)
        integral = q[first]
        for i in range(1, int(sizes.max())):  # left to right, as sum() adds
            more = sizes > i
            integral[more] += q[first[more] + i]
        vals[lo + g.offset, g.node] = integral / _over(g.area, g.denom ** 3)
        mask[lo + g.offset, g.node] = True
    return _checked(thetas, vals), mask


def dyadic_restriction(w: Callable, theta, domain: ContinuousDomain, depth: int):
    """Average w over T(I) cap region for every good node of the offset.

    Returns (TreeWeight, DyadicDomain) on the offset's grid: the tree value
    at a good node is the region average of w over its top half (midpoint
    quadrature per exact piece), cells off the good set carry a neutral 1
    and are excluded from the domain.  The one-offset case of _restrict.
    """
    values, mask = _restrict(w, [theta], domain, depth)
    return TreeWeight(theta, depth, values[0]), DyadicDomain(theta, depth, mask[0])


def restriction_certificate(w: Callable, p: float, q: float,
                            restriction: TreeWeight, rdomain: DyadicDomain,
                            region: ContinuousDomain) -> WeightCertificate:
    """Certify the restricted tree constant against the region's own.

    The inequality is tree constant of the restriction to the q-th power
    at exponent p, at most 18^p times the continuous restricted constant
    of w^q.  It holds box by box: a good node's tree mass overestimates
    the region integral over its top half by at most the goodness factor
    18, the power -1/(p-1) is convex so averaging before applying it only
    helps, and both sides normalize by the full box area.  The continuous
    sup (restricted_box_product, the B_1 ratio at p = 1) runs over the grid
    boxes carrying restricted mass plus the generator arcs; enlarging the
    family could only raise the bound.
    """
    def wq(r, a):
        return w(r, a) ** q

    tree_c = tree_bp_constant(restriction.power(q), p, rdomain)
    arcs = {}
    for nid in np.flatnonzero(rdomain.mask):
        nid = int(nid)
        while nid >= 1 and nid not in arcs:
            level = nid.bit_length() - 1
            arcs[nid] = GridNode(rdomain.theta, level, nid - (1 << level)).arc()
            nid >>= 1
    family = list(arcs.values()) + list(region.generators)
    vals = [restricted_box_product(wq, p, region, arc) for arc in family]
    best = max([0.0] + [v for v in vals if v is not None])
    return WeightCertificate(
        "bp_of_restriction",
        bound=18.0 ** p * best,
        measured=tree_c,
        inputs={"p": p, "q": q, "theta": float(rdomain.theta),
                "continuous_constant": best, "family_size": len(family)},
    )


def _pieces_mesh(pieces, nr: int, na: int, d_floor: float = 0.0):
    """Midpoint mesh over polar rectangles, optionally held away from the
    boundary: points below the floor gap d_floor compare a weight against
    cells the finite tree cannot resolve, so gap surveys clamp to it."""
    rs, angs = [], []
    for rect in pieces:
        d_lo, d_hi = float(rect.d_lo), float(rect.d_hi)
        d_lo = max(d_lo, min(d_floor, d_hi / 2.0))
        a0, alen = float(rect.ang_start), float(rect.ang_len)
        dm = d_lo + (np.arange(nr) + 0.5) * (d_hi - d_lo) / nr
        am = (a0 + (np.arange(na) + 0.5) * alen / na) % 1.0
        r, a = np.meshgrid(1.0 - dm, am, indexing="ij")
        rs.append(r.ravel())
        angs.append(a.ravel())
    return np.concatenate(rs), np.concatenate(angs)


# ---------------------------------------------------------------------------
# continuous constants
# ---------------------------------------------------------------------------

def default_arc_family(depth: int):
    """Survey family for continuous constants: arcs starting on the
    2^{depth+1} grid with lengths on the geometric grid 2^0 .. 2^-depth,
    all dyadic, so the survey's common denominator stays small.  A fresh
    list of arcs built once per depth."""
    return list(_arc_family(depth))


@lru_cache(maxsize=16)
def _arc_family(depth: int) -> tuple:
    centers = 1 << (depth + 1)
    return tuple(UnitArc(Fraction(j, centers), Fraction(1, 1 << k))
                 for k in range(depth + 1) for j in range(centers))


# midpoints per side of each piece's mesh in the restricted box products
BOX_MESH = 6


def restricted_box_product(w: Callable, p: float, domain: ContinuousDomain, arc: UnitArc):
    """The restricted B_p product of w over S(arc) cap region; at p = 1 the
    B_1 ratio, the average over the least value on the pieces' mesh.

    Integrals run over the intersection only but both averages divide by
    the full box area A(S(arc)), matching the normalization of the
    restricted tree constant.  An integral is one quadrature of all of the
    pieces, added in clip order: bitwise rect_quadrature piece by piece.
    Returns None when the box misses the region.
    """
    pieces = domain.clip_to_box(arc)
    if not pieces:
        return None
    ell = arc.length
    area = float(ell * (1 - (1 - ell) ** 2))
    bounds = _rect_bounds(pieces)

    def integral(fn):  # left to right, as sum() adds
        return sum(_quadrature_many(*bounds, fn, BOX_MESH, BOX_MESH).tolist())

    if p == 1:
        return (integral(w) / area) / float(np.min(w(*_pieces_mesh(pieces, BOX_MESH, BOX_MESH))))

    def dual(r, a):
        return w(r, a) ** (-1.0 / (p - 1))

    return (integral(w) / area) * (integral(dual) / area) ** (p - 1)


# ---------------------------------------------------------------------------
# offset-averaged dyadic distance
# ---------------------------------------------------------------------------

def avg_beta_check(pairs):
    """Compare the offset-averaged dyadic distance against the hyperbolic one.

    pairs: iterable of ((modulus, angle), (modulus, angle)) tuples, angles
    in turns.  The headline ratio per pair is
    (mean over offsets of beta_theta) / (1 + beta), in closed form: the
    points share their level-k cell with the containment chance of their
    circular distance, so the mean is the deeper level minus those chances
    summed over k = 1..kmin.  The largest and smallest beta_theta are exact
    too, and the report carries the reverse pointwise ratio
    beta / (1 + smallest beta_theta), which stays small because a grid cell
    of the scale of either point contains both whenever beta_theta vanishes.
    No offset is sampled: with both angles over one denominator Q the
    circular distance is dn / Q, every chance max(0, Q - 2^k dn) / Q, and
    the mean one integer quotient, rounded once as float(Fraction) rounds.
    """
    ratios, means, maxima, pointwise = [], [], [], []
    for z, w in pairs:
        kz = _depth_level(z[0])
        kw = _depth_level(w[0])
        deeper, kmin = max(kz, kw), min(kz, kw)
        nz, dz = _ratio(z[1])
        nw, dw = _ratio(w[1])
        Q = math.lcm(dz, dw)
        dn = (nz * (Q // dz) - nw * (Q // dw)) % Q
        dn = min(dn, Q - dn)
        chances = [c for c in (Q - (dn << k) for k in range(1, kmin + 1)) if c > 0]
        mean_bt = (deeper * Q - sum(chances)) / Q
        smallest = deeper - len(chances)  # the chances nest in k
        zc = z[0] * np.exp(2j * np.pi * z[1])
        wc = w[0] * np.exp(2j * np.pi * w[1])
        beta = beta_hyperbolic(zc, wc)
        ratios.append(mean_bt / (1.0 + beta))
        means.append(mean_bt)
        # a level-1 line separates distinct angles on a share 2 delta of offsets
        maxima.append(deeper if dn > 0 else deeper - kmin)
        pointwise.append(beta / (1.0 + smallest))
    ratios = np.array(ratios)
    return {
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
        "max_pointwise_ratio": float(max(pointwise)),
        "mean_beta_theta": means,
        "max_beta_theta": maxima,
        "ratios": ratios,
    }


def _ratio(x) -> tuple:
    """Numerator and denominator of an int, float or Fraction, exactly."""
    return (x if isinstance(x, (float, Fraction)) else Fraction(x)).as_integer_ratio()


def _depth_level(modulus) -> int:
    """containing_level of 1 - modulus, in integers."""
    p, q = _ratio(modulus)
    return _ratio_level(q - p, q)


# ---------------------------------------------------------------------------
# the continuous extension pipeline
# ---------------------------------------------------------------------------

@dataclass
class ThetaArtifact:
    """Everything one offset contributes to the pipeline."""

    theta: Fraction
    restriction: TreeWeight
    domain: DyadicDomain
    extension: object  # ExtensionResult
    factorization: object = None  # FactorizationResult for p > 1


@dataclass
class ContinuousExtensionResult:
    weight: Callable
    p: float
    q: float
    artifacts: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def per_theta(self):
        return [a.extension for a in self.artifacts]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.per_theta)

    def report(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "theta_count": len(self.artifacts),
            "constants": {k: _plain(v) for k, v in sorted(self.constants.items())},
            "per_theta_ok": [r.ok for r in self.per_theta],
            "ok": self.ok,
        }

    def theta_csv_rows(self):
        """(theta, certificate quantity, bound, measured) per offset."""
        rows = []
        for art in self.artifacts:
            for cert in art.extension.certificates:
                rows.append((float(art.theta), cert.quantity,
                             cert.bound, cert.measured))
        return rows


def _group_mean_log(logv: np.ndarray, th: np.ndarray, k: int, L: int, span: int,
                    origins: np.ndarray, cuts: np.ndarray, slot: np.ndarray,
                    valid: np.ndarray) -> np.ndarray:
    """Mean over offsets of the band-k log tree value (logv, offsets x 2^k)
    on each piece of a group of windows (origin, origin + span], whose
    pieces start at cuts: per window, the value at its start plus a running
    sum of the jumps at each offset's lines.  Each window's jumps fill its
    row of a (windows, pieces) pad, valid where a piece exists; slot is
    each piece's place in the flattened pad."""
    step, cells = L >> k, 1 << k
    count = np.arange(max(1, span // step))
    rel = th - origins[:, None]
    at = (rel % step)[..., None] + count.astype(th.dtype) * step  # lines from origin on
    cell = ((-(rel // step)) % cells).astype(np.intp)  # right of the first one
    col = (cell[..., None] + count) % cells
    rows = np.arange(len(th))[:, None]
    inside = at < span
    jumps = np.bincount(slot[np.searchsorted(cuts, (at + origins[:, None, None])[inside])],
                        (logv[rows, col] - logv[rows, col - 1])[inside], minlength=valid.size)
    base = logv[rows[:, 0], cell - 1].sum(axis=1)
    return ((base[:, None] + np.cumsum(jumps.reshape(valid.shape), axis=1)) / len(th))[valid]


def _tree_prefix(values, th: np.ndarray, k: int, L: int, points: np.ndarray) -> np.ndarray:
    """(offsets, points + 1): each row's band-k integral along the angle
    from 0 to each point (the first is 0) and to the full turn."""
    step, cells = L >> k, 1 << k
    total = np.cumsum(values[:, cells:2 * cells], axis=1)
    rows = np.arange(len(th))[:, None]
    rel = (points - th[:, None]) % L
    j = (rel // step).astype(np.intp)
    before = np.where(j > 0, total[rows, j - 1], 0.0)
    at = before / cells + _over(rel % step, L) * (total[rows, j] - before)  # from theta
    whole = total[:, -1:] / cells
    return np.hstack([at - at[:, :1] + np.where(rel < rel[:, :1], whole, 0.0), whole])


def _survey_geo_family(thetas: Sequence, depth: int, stacks, p: float, family):
    """Survey the B_p product of a product of geo-averaged tree families.

    g is geo_mean_weight(thetas, depth, stacks), the offsets Fractions.
    Returns the sup over the family and the worst relative violation of
    log-Minkowski (box average of each stack's geometric mean at most the
    geometric mean of its box averages; negative or tiny means it held).

    Both are exact: g is constant on depth band k (the leaf band
    (0, 2^-N]) times the pieces between the finest grid lines of all
    offsets and the arc endpoints, integers over one denominator L.  The
    angle is cut into windows of 2^-(N // 2) turns, taken in groups of
    consecutive windows with at most SURVEY_LINES finest lines.  Per group,
    band and stack one set of array calls gives the mean log on every
    piece, a running sum of jumps restarted at each window; cell value
    times exact area, and the B_1 minimum over this and deeper bands, add
    up per chunk between arc endpoints and window starts.  Offsets' box
    sums come from their own cells.  The largest arrays: each stack's
    (offsets, 2^(N+1)) log values, one group's pieces, the (offsets, arcs)
    box sums.
    """
    arcs = list(family)
    lefts, lengths = [arc.left for arc in arcs], [arc.length for arc in arcs]
    L = math.lcm(1 << (depth + 1), *{x.denominator for xs in (thetas, lefts, lengths) for x in xs})
    th = _scaled(thetas, L)
    return _survey_scaled(depth, stacks, p, L, th, _scaled(lefts, L), _scaled(lengths, L),
                          _distinct(th % (L >> depth)))


def _scaled(xs, L: int) -> np.ndarray:
    """Fractions whose denominators divide L, times L: int64 while that is
    safe, Python ints beyond."""
    return np.array([x.numerator * (L // x.denominator) for x in xs],
                    dtype=np.int64 if L < 1 << 61 else object)


def _distinct(xs: np.ndarray) -> np.ndarray:
    """The distinct entries, sorted (a first np.unique call imports a megabyte)."""
    xs = np.sort(xs)
    return xs[np.append(True, xs[1:] != xs[:-1])]


def _survey_scaled(depth: int, stacks, p: float, L: int, th, left, ell, shifts):
    """The survey of `_survey_geo_family` once every endpoint is an integer
    over L (`_scaled`): the offsets, the arcs' left ends and lengths, and
    the distinct offsets modulo the finest grid step, sorted."""
    dt = left.dtype
    right = (left + ell) % L
    windows, span, fine = 1 << (depth // 2), L >> (depth // 2), L >> depth
    grid = np.arange(windows + 1).astype(dt) * span
    # each window holds the same finest grid lines, relative to its start
    lines = (np.arange(span // fine).astype(dt)[:, None] * fine + shifts).ravel()
    starts = _distinct(np.concatenate([grid[:-1], left, right]))
    edges = np.searchsorted(starts, grid)
    # arc i is chunks a[i] to b[i], through angle 0 when b[i] <= a[i]
    a = np.searchsorted(starts, left)
    b = np.where(right == 0, len(starts), np.searchsorted(starts, right))
    wrap = b <= a

    def along(prefix):  # integrals over each arc from (..., chunks + 1) ones from 0
        return prefix[..., b] - prefix[..., a] + np.where(wrap, prefix[..., -1:], 0.0)

    # (bands, arcs): the exact area of band k inside each box, per unit of angle
    lo = np.array([L >> (k + 1) for k in range(depth)] + [0], dtype=dt)[:, None]
    hi = np.array([L >> k for k in range(depth + 1)], dtype=dt)[:, None]
    d_lo, d_top = _over(lo, L), _over(np.maximum(np.minimum(ell, hi), lo), L)
    factor = (d_top - d_lo) * (2.0 - d_lo - d_top)

    # (bands, chunks) integrals along the angle, and minima of g
    g_int, dual_int, g_min = (np.zeros((depth + 1, len(starts))) for _ in range(3))
    geo_int = [np.zeros_like(g_int) for _ in stacks]
    logs = [np.log(values[:, 1:]) for values, _ in stacks]
    per_group = max(1, SURVEY_LINES // len(lines))
    for w in range(0, windows, per_group):
        origins = np.arange(w, min(w + per_group, windows)).astype(dt) * span
        chunks = slice(edges[w], edges[w + len(origins)])
        # the group's pieces: each window's lines with its chunk starts cut
        # in; one on a grid line leaves a zero-width piece, adding nothing
        flat = (origins[:, None] + lines).ravel()
        cuts = np.insert(flat, np.searchsorted(flat, starts[chunks]), starts[chunks])
        width = _over(np.diff(np.append(cuts, origins[-1] + span)), L)
        first = np.searchsorted(cuts, starts[chunks])
        pieces = np.diff(np.append(np.searchsorted(cuts, origins), len(cuts)))
        valid = np.arange(pieces.max()) < pieces[:, None]
        slot = np.flatnonzero(valid)
        for k in range(depth + 1):
            logg = np.zeros(len(cuts))
            for (_, power), logv, geo in zip(stacks, logs, geo_int):
                mean_log = _group_mean_log(logv[:, (1 << k) - 1:(2 << k) - 1], th, k, L, span,
                                           origins, cuts, slot, valid)
                logg += power * mean_log
                geo[k, chunks] = np.add.reduceat(width * np.exp(mean_log), first)
            g = np.exp(logg)
            g_int[k, chunks] = np.add.reduceat(width * g, first)
            if p == 1:
                g_min[k, chunks] = np.minimum.reduceat(g, first)
            else:
                dual_int[k, chunks] = np.add.reduceat(width * g ** (-1.0 / (p - 1)), first)
    del logs, logv  # the (offsets, 2^(N+1)) log values, one per stack
    tree_sums = [np.zeros((len(th), len(left))) for _ in stacks]
    for (values, _), sums in zip(stacks, tree_sums):
        for k in range(depth + 1):
            sums += factor[k] * along(_tree_prefix(values, th, k, L, starts))

    def over_arcs(table):
        prefix = np.concatenate([np.zeros((depth + 1, 1)), np.cumsum(table, axis=1)], axis=1)
        return np.sum(factor * along(prefix), axis=0)

    area = _over(ell, L) ** 2 * (2.0 - _over(ell, L))
    avg_g = over_arcs(g_int) / area
    if p == 1:
        # box minima from each box's shallowest band down; in two laps no arc wraps
        low = np.minimum.accumulate(g_min[::-1], axis=0)[::-1]
        laps = np.concatenate([low, low, np.full((depth + 1, 1), np.inf)], axis=1).ravel()
        row = np.sum(lo >= ell, axis=0) * (2 * len(starts) + 1)
        spans = np.stack([row + a, row + b + np.where(wrap, len(starts), 0)], axis=1)
        val = avg_g / np.minimum.reduceat(laps, spans.ravel())[::2]
    else:
        val = avg_g * (over_arcs(dual_int) / area) ** (p - 1)
    mink = [over_arcs(geo) / area / np.exp(np.mean(np.log(sums / area), axis=0)) - 1.0
            for geo, sums in zip(geo_int, tree_sums)]
    return float(val.max(initial=0.0)), float(np.max(mink, initial=-np.inf))


def extend_continuous(w: Callable, p: float, q: float,
                      domain: ContinuousDomain, depth: int = 8,
                      theta_count: int = 64,
                      family_depth: int = 5) -> ContinuousExtensionResult:
    """Extend a weight off a union of top halves, averaging over offsets.

    Per offset theta (midpoints of a uniform partition of the circle): the
    weight is averaged onto the good nodes of the offset's grid, extended
    there by the dyadic machinery at exponent p, and for p > 1 the
    extension is factored into B_1 pieces over the full tree.  The output
    is the geometric mean in theta of the per-offset extensions (for
    p > 1, of each factor separately, recombined as W1 W2^{1-p}).  Each
    step runs once on one (offsets, 2^(N+1)) array stack: the restriction
    (_restrict), the extension with its certificate constants (_extend_b1
    or _extend_bp), and for p > 1 the factorization (_factor_bho_full).
    Its stacks, [(extension, 1)] or [(w1, 1), (w2, 1 - p)], are W's
    (geo_mean_weight).  A ValueError names the first offset that failed.

    The trees run at tree_depth = min(depth, L + 1), L the deepest level
    at which any offset has a good node.  Below L every restricted tree is
    neutral, so the extension and its factors are constant, up to
    rounding, on each subtree of level L + 1, whose leaf cell is the whole
    Carleson box; deeper levels would change nothing but rounding.
    Restriction still runs at `depth`, and its node values are rounded
    once from exact rationals, so the kept levels are bitwise the
    restriction at tree_depth.  `depth` stays the gap survey's floor; the
    constants report both.

    Reported constants: the continuous B_p (or B_1) constant of W over the
    default arc family and the worst log-Minkowski margin on those boxes,
    both exact cell sums (_survey_geo_family), and the sup over a region
    mesh of |log w - log W|.
    """
    thetas = [Fraction(2 * i + 1, 2 * theta_count) for i in range(theta_count)]
    values, masks = _restrict(w, thetas, domain, depth)
    deepest = int(np.flatnonzero(masks.any(axis=0))[-1]).bit_length() - 1
    tree_depth = min(depth, deepest + 1)
    values = np.ascontiguousarray(values[:, :2 << tree_depth])
    masks = np.ascontiguousarray(masks[:, :2 << tree_depth])
    if p == 1:
        ext_vals, exts = _extend_b1(thetas, tree_depth, values, masks, q)
        facts = [None] * theta_count
        stacks = [(ext_vals, 1.0)]
    else:
        ext_vals, exts = _extend_bp(thetas, tree_depth, values, masks, p, q, terms=60)
        for e in exts:  # nothing reads the extension step's factorization: free its stacks
            e.factorization = None
        w1, w2, facts = _factor_bho_full(thetas, tree_depth, ext_vals, p, terms=60)
        stacks = [(w1, 1.0), (w2, 1.0 - p)]
    artifacts = [ThetaArtifact(*row) for row in zip(
        thetas, _tree_rows(thetas, tree_depth, values),
        [DyadicDomain(th, tree_depth, m) for th, m in zip(thetas, masks)], exts, facts)]

    family = default_arc_family(family_depth)
    const, mink = _survey_geo_family(thetas, tree_depth, stacks, p, family)
    big = geo_mean_weight(thetas, tree_depth, stacks)
    key = "continuous_b1" if p == 1 else "continuous_bp"

    # gap survey stops at the band of the configured depth, also when the
    # trees stop at a shallower tree_depth: W is constant on each leaf box
    # while w may keep moving, so the sup over the full open region would
    # measure resolution, not agreement.
    # The 10 x 32 mesh per piece is dense enough that the sup is stable in
    # the offset count; a coarse 3 x 8 mesh made it wobble by ~10%
    r_mesh, a_mesh = _pieces_mesh(domain.pieces(), 10, 32, d_floor=0.5 ** (depth + 1))
    gap = float(np.max(np.abs(np.log(w(r_mesh, a_mesh)) - np.log(big(r_mesh, a_mesh)))))
    constants = {
        key: const,
        "log_minkowski_margin": mink,
        "log_gap_sup": gap,
        "family_size": len(family),
        "theta_count": theta_count,
        "depth": depth,
        "tree_depth": tree_depth,
    }
    return ContinuousExtensionResult(
        weight=big, p=p, q=q, artifacts=artifacts, constants=constants,
    )
