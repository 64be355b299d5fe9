"""Averaging dyadic constructions over grid offsets.

A continuous region here is a finite union of top halves T(A) of arbitrary
(typically non-dyadic, overlapping) boundary arcs A.  In polar coordinates
each T(A) is a rectangle: depth band (|A|/2, |A|] times the arc, where
depth means 1 - |z|.  Unions of such rectangles decompose exactly into
disjoint polar rectangles by cutting the depth axis at all band endpoints
and merging angular intervals per elementary band; all of that arithmetic
runs in exact rationals, so areas and the 1/18 goodness threshold below
are decided without rounding.

For a grid offset theta, the good nodes are the grid arcs I whose top half
meets the region in at least A(T(I))/18 of its area.  Averaging a weight
over those intersections produces a tree weight on the offset's grid,
restricted to the good cells; extensions of these restrictions are then
combined across offsets by a geometric mean in theta.

The offset measure of predecessor scales: for an arc of length ell with
2^{-N} <= ell < 2^{-N+1}, the chance that a uniformly shifted grid
contains the arc inside a level-m grid arc is 1 - 2^m ell (nonnegative for
m <= N, and 1 at m = 0 where the grid arc is the whole circle).  The
events nest in m, so the measure of {smallest containing grid arc has
level exactly m} is the difference of consecutive containment chances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .extension import extend_b1, extend_bp
from .factorization import factor_bho_full
from .geometry import (
    GridNode,
    UnitArc,
    arc_contains_angle,
    area_top,
    beta_hyperbolic,
    containing_level,
    mod1,
)
from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _plain,
    bp_constant as tree_bp_constant,
    values_at,
)

__all__ = [
    "PolarRect",
    "ContinuousDomain",
    "SampledWeight",
    "theta_measure_spectrum",
    "good_nodes",
    "dyadic_restriction",
    "restriction_certificate",
    "five_probes",
    "geo_mean_weight",
    "default_arc_family",
    "continuous_bp_constant",
    "continuous_b1_constant",
    "restricted_box_product",
    "avg_beta_check",
    "mean_common_boxes",
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

    def pieces(self):
        out = []
        for lo, hi, ang in self._bands:
            for s, e in ang:
                out.append(PolarRect(lo, hi, s, e - s))
        return out

    def area(self) -> Fraction:
        return sum((p.area() for p in self.pieces()), Fraction(0))

    def contains(self, depth: Fraction, angle) -> bool:
        """Exact membership of a point given by its depth 1-|z| and angle."""
        for g in self.generators:
            if g.length / 2 < depth <= g.length and arc_contains_angle(g, angle):
                return True
        return False

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
    exactly.
    """
    d_lo, d_hi = float(rect.d_lo), float(rect.d_hi)
    a0, alen = float(rect.ang_start), float(rect.ang_len)
    edges = np.linspace(d_lo, d_hi, nr + 1)
    dmid = 0.5 * (edges[:-1] + edges[1:])
    amid = a0 + (np.arange(na) + 0.5) * alen / na
    sub_areas = alen * ((1 - edges[:-1]) ** 2 - (1 - edges[1:]) ** 2)
    r, a = np.meshgrid(1.0 - dmid, amid % 1.0, indexing="ij")
    vals = fn(r, a)
    return float(np.sum(sub_areas * np.mean(vals, axis=1)))


# ---------------------------------------------------------------------------
# sampled weights on the disc
# ---------------------------------------------------------------------------

class SampledWeight:
    """Positive weight on the disc given by a vectorized evaluator fn(r, angle)."""

    def __init__(self, fn: Callable, label: str = "", meta: Optional[dict] = None):
        self.fn = fn
        self.label = label
        self.meta = meta or {}

    def __call__(self, r, a):
        return self.fn(np.asarray(r, dtype=float), np.asarray(a, dtype=float))


def geo_mean_weight(trees: Sequence[TreeWeight], label: str = "geo") -> SampledWeight:
    """Pointwise geometric mean over a family of tree weights."""
    # one tree at a time: a (T, points) stack over a dense region mesh costs more memory
    trees = list(trees)

    def fn(r, a):
        acc = np.zeros_like(r, dtype=float)
        for t in trees:
            acc += np.log(t.eval_polar(r, a))
        return np.exp(acc / len(trees))

    return SampledWeight(fn, label=label, meta={"count": len(trees)})


# ---------------------------------------------------------------------------
# offset measure of predecessor scales
# ---------------------------------------------------------------------------

def theta_measure_spectrum(arc: UnitArc) -> dict:
    """Exact offset-measure of the smallest containing grid arc's scale.

    For an arc of length in [2^-N, 2^{-N+1}) the key k means the smallest
    grid arc containing it (as theta varies uniformly) has length 2^{k-N},
    k scales above the arc's own dyadic scale N.  A grid arc of level m
    contains the arc exactly when the offset residue leaves room, an event
    of measure max(0, 1 - 2^m ell) for m >= 1 and 1 for the full circle;
    the events nest in m, so each bucket is a difference of two of them.
    Values are Fractions summing to exactly 1.  The key 0 is always
    present with measure 0: containment at the arc's own scale needs exact
    alignment (a null event) when the length is dyadic, and is impossible
    otherwise since level-N arcs are then strictly shorter.
    """
    ell = arc.length
    if ell >= 1:
        return {0: Fraction(1)}
    n = containing_level(ell)
    cap = n if (1 << n) * ell == 1 else n + 1

    def contain(m):
        if m == 0:
            return Fraction(1)
        return max(Fraction(0), 1 - (1 << m) * ell)

    out = {0: Fraction(0)}
    for m in range(n + 1):
        mass = contain(m) - contain(m + 1)
        if mass > 0:
            out[cap - m] = mass
    return out


# ---------------------------------------------------------------------------
# good nodes and dyadic restriction
# ---------------------------------------------------------------------------

GOOD_FRACTION = Fraction(1, 18)


def good_nodes(theta, domain: ContinuousDomain, depth: int,
               threshold: Fraction = GOOD_FRACTION):
    """Grid arcs whose top half meets the region in >= threshold of its area.

    Only levels within one scale of some generator can qualify (the depth
    bands must overlap), so the scan enumerates a few candidate indices
    per generator instead of the whole tree.  Returns a list of
    (GridNode, clip pieces, exact intersection area) sorted by node id.
    """
    theta = mod1(theta)
    found = {}
    for k in range(depth + 1):
        step = Fraction(1, 1 << k)
        cand = set()
        for g in domain.generators:
            if not (step / 2 < g.length < 2 * step):
                continue
            lo = (g.left - theta) / step
            lo_idx = lo.numerator // lo.denominator
            count = int(math.ceil(float(g.length / step))) + 2
            for t in range(lo_idx, lo_idx + count + 1):
                cand.add(t % (1 << k))
        for j in sorted(cand):
            node = GridNode(theta, k, j)
            pieces = domain.clip_to_top(node)
            if not pieces:
                continue
            inter = sum((p.area() for p in pieces), Fraction(0))
            if inter >= threshold * area_top(node.length):
                found[(k, j)] = (node, pieces, inter)
    return [found[key] for key in sorted(found)]


def five_probes(arc: UnitArc):
    """Five probe points of T(arc): four corners and the outer-arc midpoint.

    Corners are nudged inward by a 2^-40 relative amount so that each probe
    lies in the half-open set; the nudge is far below the rational
    resolution of any bundled generator, so grid-cell assignment matches
    the ideal corner's cell whenever the corner is not exactly on a grid
    line (and takes the inside arc when it is).  Returned as (depth, angle)
    pairs, exact.
    """
    ell = arc.length
    tiny = ell / (1 << 40)
    left, right = arc.left, mod1(arc.left + ell)
    d_in = ell
    d_out = ell / 2 + tiny
    return [
        (d_in, mod1(left + tiny)),
        (d_in, right),
        (d_out, mod1(left + tiny)),
        (d_out, right),
        (d_out, mod1(left + ell / 2)),
    ]


def dyadic_restriction(w: SampledWeight, theta, domain: ContinuousDomain,
                       depth: int, nr: int = 4, na: int = 4):
    """Average w over T(I) cap region for every good node of the offset.

    Returns (TreeWeight, DyadicDomain) on the offset's grid: the tree value
    at a good node is the region average of w over its top half (midpoint
    quadrature per exact piece), cells off the good set carry a neutral 1
    and are excluded from the domain.
    """
    goods = good_nodes(theta, domain, depth)
    if not goods:
        raise ValueError("no good nodes: region and grid scales do not meet")
    vals = np.ones(1 << (depth + 1))
    mask = np.zeros(1 << (depth + 1), dtype=bool)
    for node, pieces, area in goods:
        integral = sum(rect_quadrature(p, w, nr, na) for p in pieces)
        nid = (1 << node.level) + node.index
        vals[nid] = integral / float(area)
        mask[nid] = True
    return TreeWeight(theta, depth, vals), DyadicDomain(theta, depth, mask)


def restriction_certificate(w: SampledWeight, p: float, q: float,
                            restriction: TreeWeight, rdomain: DyadicDomain,
                            region: ContinuousDomain,
                            nr: int = 6, na: int = 6) -> WeightCertificate:
    """Certify the restricted tree constant against the region's own.

    The inequality is tree constant of the restriction to the q-th power
    at exponent p, at most 18^p times the continuous restricted constant
    of w^q.  It holds box by box: a good node's tree mass overestimates
    the region integral over its top half by at most the goodness factor
    18, the power -1/(p-1) is convex so averaging before applying it only
    helps, and both sides normalize by the full box area.  The continuous
    sup runs over the grid boxes carrying restricted mass plus the
    generator arcs; enlarging the family could only raise the bound.
    """
    wq = SampledWeight(lambda r, a: w(r, a) ** q)
    tree_c = tree_bp_constant(restriction.power(q), p, rdomain)
    arcs = {}
    for nid in np.flatnonzero(rdomain.mask):
        nid = int(nid)
        while nid >= 1 and nid not in arcs:
            level = nid.bit_length() - 1
            arcs[nid] = GridNode(rdomain.theta, level, nid - (1 << level)).arc()
            nid >>= 1
    family = list(arcs.values()) + list(region.generators)
    best = 0.0
    for arc in family:
        if p == 1:
            pieces = region.clip_to_box(arc)
            if not pieces:
                continue
            ell = arc.length
            area = float(ell * (1 - (1 - ell) ** 2))
            int_w = sum(rect_quadrature(pc, wq, nr, na) for pc in pieces)
            r_m, a_m = _pieces_mesh(pieces, nr, na)
            val = (int_w / area) / float(np.min(wq(r_m, a_m)))
        else:
            val = restricted_box_product(wq, p, region, arc, nr, na)
        if val is not None:
            best = max(best, val)
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

def default_arc_family(depth: int, rng=None, random_count: int = 0):
    """Survey family for continuous constants.

    Deterministic part: arcs centered on the 2^{depth+1} grid with lengths
    on the geometric grid 2^0 .. 2^-depth.  Optionally followed by random
    arcs (uniform center, log-uniform length down to the same scale).
    """
    out = []
    centers = 1 << (depth + 1)
    for k in range(depth + 1):
        for j in range(centers):
            out.append(UnitArc(Fraction(j, centers), Fraction(1, 1 << k)))
    if random_count:
        rng = np.random.default_rng(rng)
        for _ in range(random_count):
            c = Fraction(float(rng.uniform()))
            ell = Fraction(float(np.exp2(-rng.uniform(0, depth))))
            out.append(UnitArc(c, ell))
    return out


def _box_mesh(arc: UnitArc, nr: int, na: int):
    """Midpoint mesh over the Carleson box S(arc) with per-cell areas.

    The depth subdivision is graded (quartically) toward the boundary:
    boxes reach depth 0 and radial powers of 1 - |z|^2 have square-root
    behavior there, which a uniform midpoint rule resolves poorly.
    """
    ell = float(arc.length)
    left = float(arc.left)
    edges = ell * np.linspace(0.0, 1.0, nr + 1) ** 4
    dmid = 0.5 * (edges[:-1] + edges[1:])
    amid = (left + (np.arange(na) + 0.5) * ell / na) % 1.0
    sub = ell / na * ((1 - edges[:-1]) ** 2 - (1 - edges[1:]) ** 2)
    r, a = np.meshgrid(1.0 - dmid, amid, indexing="ij")
    areas = np.repeat(sub[:, None], na, axis=1)
    return r.ravel(), a.ravel(), areas.ravel()


def continuous_bp_constant(w: SampledWeight, p: float,
                           family: Sequence[UnitArc], nr: int = 6, na: int = 6):
    """Survey sup of the B_p product over an arc family by quadrature.

    Evaluates w once per box mesh and reuses the values for the dual power.
    Returns (sup, per-arc list of (arc, value)).
    """
    if p <= 1:
        raise ValueError("use continuous_b1_constant at the endpoint")
    rows = []
    best = 0.0
    for arc in family:
        r, a, areas = _box_mesh(arc, nr, na)
        vals = w(r, a)
        total = areas.sum()
        avg_w = float((vals * areas).sum() / total)
        avg_dual = float((vals ** (-1.0 / (p - 1)) * areas).sum() / total)
        prod = avg_w * avg_dual ** (p - 1)
        rows.append((arc, prod))
        best = max(best, prod)
    return best, rows


def restricted_box_product(w: SampledWeight, p: float, domain: ContinuousDomain,
                           arc: UnitArc, nr: int = 4, na: int = 4):
    """The restricted B_p product of w over S(arc) cap region.

    Integrals run over the intersection only but both averages divide by
    the full box area A(S(arc)), matching the normalization of the
    restricted tree constant.  Returns None when the box misses the
    region.
    """
    pieces = domain.clip_to_box(arc)
    if not pieces:
        return None
    ell = arc.length
    area = float(ell * (1 - (1 - ell) ** 2))
    int_w = sum(rect_quadrature(pc, w, nr, na) for pc in pieces)
    dual = SampledWeight(lambda r, a: w(r, a) ** (-1.0 / (p - 1)))
    int_dual = sum(rect_quadrature(pc, dual, nr, na) for pc in pieces)
    return (int_w / area) * (int_dual / area) ** (p - 1)


def continuous_b1_constant(w: SampledWeight, family: Sequence[UnitArc],
                           nr: int = 6, na: int = 6):
    """Survey sup over arcs of (box average of w) / (box minimum of w)."""
    rows = []
    best = 0.0
    for arc in family:
        r, a, areas = _box_mesh(arc, nr, na)
        vals = w(r, a)
        ratio = float((vals * areas).sum() / areas.sum() / vals.min())
        rows.append((arc, ratio))
        best = max(best, ratio)
    return best, rows


# ---------------------------------------------------------------------------
# offset-averaged dyadic distance
# ---------------------------------------------------------------------------

def _cells_over_offsets(modulus: float, angle: float, thetas: np.ndarray):
    """(level, index per offset) of the containing grid cell, vectorized."""
    k = containing_level(1 - Fraction(modulus))
    n = np.int64(1 << k)
    f = ((angle - thetas) % 1.0) * (1 << k)
    j = np.ceil(f).astype(np.int64) - 1
    j = np.where(j < 0, n - 1, np.minimum(j, n - 1))
    return k, j


def _common_ancestor_levels(z, w, thetas: np.ndarray):
    """(level of the deeper cell, level of the common ancestor per offset)."""
    kz, jz = _cells_over_offsets(z[0], z[1], thetas)
    kw, jw = _cells_over_offsets(w[0], w[1], thetas)
    kmin = min(kz, kw)
    x = (jz >> (kz - kmin)) ^ (jw >> (kw - kmin))
    bl = np.zeros_like(x)
    nz = x > 0
    bl[nz] = np.floor(np.log2(x[nz])).astype(np.int64) + 1
    return max(kz, kw), kmin - bl


def avg_beta_check(pairs, resolution_bits: int = 12):
    """Compare the offset-averaged dyadic distance against the hyperbolic one.

    pairs: iterable of ((modulus, angle), (modulus, angle)) tuples, angles
    in turns.  The headline ratio per pair is
    (mean over offsets of beta_theta) / (1 + beta); the report also carries
    the reverse pointwise ratio beta / (1 + beta_theta) maximized over the
    offset grid, which stays small because a grid cell of the scale of
    either point contains both whenever beta_theta vanishes.
    """
    t = 1 << resolution_bits
    thetas = (np.arange(t) + 0.5) / t
    ratios, means, maxima, pointwise = [], [], [], []
    for z, w in pairs:
        deeper, common = _common_ancestor_levels(z, w, thetas)
        bt = deeper - common
        mean_bt = float(bt.mean())
        zc = z[0] * np.exp(2j * np.pi * z[1])
        wc = w[0] * np.exp(2j * np.pi * w[1])
        beta = beta_hyperbolic(zc, wc)
        ratios.append(mean_bt / (1.0 + beta))
        means.append(mean_bt)
        maxima.append(int(bt.max()))
        pointwise.append(beta / (1.0 + float(bt.min())))
    ratios = np.array(ratios)
    return {
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
        "max_pointwise_ratio": float(max(pointwise)),
        "mean_beta_theta": means,
        "max_beta_theta": maxima,
        "ratios": ratios,
    }


def mean_common_boxes(z, w, resolution_bits: int = 12) -> float:
    """Mean over offsets of the number of grid boxes containing both cells."""
    t = 1 << resolution_bits
    thetas = (np.arange(t) + 0.5) / t
    _, common = _common_ancestor_levels(z, w, thetas)
    return float((common + 1).mean())


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
    weight: SampledWeight
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


def _domain_mesh(domain: ContinuousDomain, nr: int = 10, na: int = 32,
                 d_floor: float = 0.0):
    # dense enough that the reported sup of |log w - log W| is stable in
    # the offset count; the coarse 3x8 mesh made it wobble by ~10%
    return _pieces_mesh(domain.pieces(), nr, na, d_floor=d_floor)


def _survey_geo_family(stacks, p: float, family, nr: int = 6, na: int = 6):
    """Survey the B_p product of a product of geo-averaged tree families.

    stacks: list of (trees, exponent) pairs; the surveyed weight at a point
    is the product over stacks of exp(mean_theta log tree value)^exponent.
    Along the way the log-Minkowski inequality (box average of the
    geometric mean is at most the geometric mean of box averages) is
    checked for every stack on every box; the worst relative violation is
    returned (negative or tiny positive means it held).  Each stack is
    evaluated at a box's mesh in one lookup over all of its offsets.
    """
    batches = [(np.stack([t.values for t in trees]), [t.theta for t in trees],
                trees[0].depth, power) for trees, power in stacks]
    best = 0.0
    mink_worst = -np.inf
    for arc in family:
        r, a, areas = _box_mesh(arc, nr, na)
        mu = areas / areas.sum()
        logg = np.zeros_like(r)
        for values, thetas, depth, power in batches:
            logv = np.log(values_at(values, thetas, depth, r, a))
            mean_log = logv.mean(axis=0)
            logg += power * mean_log
            lhs = float(mu @ np.exp(mean_log))
            rhs = float(np.exp(np.mean(np.log(np.exp(logv) @ mu))))
            mink_worst = max(mink_worst, lhs / rhs - 1.0)
        g = np.exp(logg)
        avg_w = float(mu @ g)
        if p == 1:
            val = avg_w / float(g.min())
        else:
            val = avg_w * float(mu @ g ** (-1.0 / (p - 1))) ** (p - 1)
        best = max(best, val)
    return best, mink_worst


def extend_continuous(w: SampledWeight, p: float, q: float,
                      domain: ContinuousDomain, depth: int = 8,
                      theta_count: int = 64,
                      family_depth: int = 5) -> ContinuousExtensionResult:
    """Extend a weight off a union of top halves, averaging over offsets.

    Per offset theta (midpoints of a uniform partition of the circle): the
    weight is averaged onto the good nodes of the offset's grid, extended
    there by the dyadic machinery at exponent p, and for p > 1 the
    extension is factored into B_1 pieces over the full tree.  The output
    is the geometric mean in theta of the per-offset extensions (for
    p > 1, of each factor separately, recombined as W1 W2^{1-p}).  The
    offsets run one after another; a ValueError from one of them is
    raised again naming the offset.

    Reported constants: a continuous B_p (or B_1) survey over the default
    arc family, the worst log-Minkowski margin seen on those boxes, and
    the sup over a region mesh of |log w - log W|.  The survey evaluates
    all offsets' trees at each box in one batch.
    """
    thetas = [Fraction(2 * i + 1, 2 * theta_count) for i in range(theta_count)]

    def one(theta):
        try:
            wt, om = dyadic_restriction(w, theta, domain, depth)
            if p == 1:
                return ThetaArtifact(theta, wt, om, extend_b1(wt, q, om))
            res = extend_bp(wt, p, q, om)
            fact = factor_bho_full(res.weight, p)
            return ThetaArtifact(theta, wt, om, res, fact)
        except ValueError as exc:
            raise ValueError(f"offset {theta} failed: {exc}") from exc

    artifacts = [one(th) for th in thetas]

    family = default_arc_family(family_depth)
    if p == 1:
        trees = [a.extension.weight for a in artifacts]
        big = geo_mean_weight(trees, label="geo_extension")
        const, mink = _survey_geo_family([(trees, 1.0)], 1, family)
        key = "continuous_b1"
    else:
        w1s = [a.factorization.w1 for a in artifacts]
        w2s = [a.factorization.w2 for a in artifacts]
        g1 = geo_mean_weight(w1s, label="geo_w1")
        g2 = geo_mean_weight(w2s, label="geo_w2")

        def fn(r, a):
            return g1(r, a) * g2(r, a) ** (1.0 - p)

        big = SampledWeight(fn, label="geo_extension", meta={"p": p})
        const, mink = _survey_geo_family([(w1s, 1.0), (w2s, 1.0 - p)], p, family)
        key = "continuous_bp"

    # gap survey stops at the deepest band the tree resolves: below it the
    # extension is cellwise constant while w may keep moving, so the sup
    # over the full open region would measure resolution, not agreement
    r_mesh, a_mesh = _domain_mesh(domain, d_floor=0.5 ** (depth + 1))
    gap = float(np.max(np.abs(np.log(w(r_mesh, a_mesh)) - np.log(big(r_mesh, a_mesh)))))
    constants = {
        key: const,
        "log_minkowski_margin": mink,
        "log_gap_sup": gap,
        "family_size": len(family),
        "theta_count": theta_count,
        "depth": depth,
    }
    return ContinuousExtensionResult(
        weight=big, p=p, q=q, artifacts=artifacts, constants=constants,
    )
