"""Brute-force reference computations shared by several test modules.

Everything here recomputes tree quantities from explicit cell lists in
pure Python, deliberately ignoring the package's vectorized layouts, or is
a sampled or exact computation the package no longer runs, kept as an
oracle (the mesh survey of continuous constants, probe points, offset
sampling of common boxes, float-born arcs, weak separation of a sequence,
the builder's per-parent Fraction selection and dict crossing walk, the
Fraction offset spectra, the fixed-length factorization series, the
per-tree geometric mean, the per-piece box product, the continuous
pipeline with every tree at the configured depth, the region area on the
generators' own grid, the Fraction survey set-up, the window-by-window
survey loop, the np.repeat ancestor cascade, the cell masses the maximal
kernel once composed, the slice-per-level subtree sums and ancestor
cascade, the stacked-trio
oscillation constant, the two-buffer S operator, the per-weight constants
loop, the weak-type ratio, the full-disc maximal norm bound, the
one-probe Carleson sum, the exact anchor points of tree addresses, the
per-arc and per-pair average command, the repeat-and-bump random_pm1
levels, the per-address sign expansion),
decides a relation of grid nodes, arcs or regions exactly
(common-ancestor level, dyadic distance, arc-in-arc containment, angle
in arc, point in region), or builds a small tree or domain from a node
list.
"""

import math
from fractions import Fraction as F

import numpy as np

from discweights.averaging import (
    ContinuousExtensionResult,
    ThetaArtifact,
    _distinct,
    _over,
    _pieces_mesh,
    _restrict,
    _scaled,
    _survey_geo_family,
    _survey_scaled,
    _tree_prefix,
    avg_beta_check,
    default_arc_family,
    dyadic_restriction,
    geo_mean_weight,
    rect_quadrature,
)
from discweights.extension import _extend_b1, _extend_bp, extend_b1, extend_bp
from discweights.factorization import _factor_bho_full, factor_bho_full, op_s
from discweights.geometry import (
    GridNode,
    UnitArc,
    area_carleson,
    area_top,
    beta_hyperbolic,
    containing_level,
    mod1,
)
from discweights.martingales import (
    ParentRecord,
    _log_inv_mass,
    _pair_blocks,
    _sign_paths,
    default_probe_addresses,
    threshold_sequence,
)
from discweights.weights import (
    DyadicDomain,
    TreeWeight,
    _tree_rows,
    box_area_vector,
    bp_constant,
    cell_areas,
    maximal_values,
    node_levels,
    random_log_walk,
)


def node_id(level: int, index: int) -> int:
    """Heap id of the grid arc at level k, position j: 2^k + j."""
    return (1 << level) + index


def brute_cells(depth, domain=None):
    out = []
    for k in range(depth + 1):
        ell = F(1, 1 << k)
        area = area_top(ell) if k < depth else area_carleson(ell)
        for j in range(1 << k):
            if domain is None or domain.mask[node_id(k, j)]:
                out.append((k, j, area))
    return out


def brute_box_integral(w, level, index, power=1.0, domain=None):
    total = 0.0
    for k, j, area in brute_cells(w.depth, domain):
        if k >= level and (j >> (k - level)) == index:
            total += w.values[node_id(k, j)] ** power * float(area)
    return total


def brute_maximal(w, domain=None):
    out = {}
    for k, j, _ in brute_cells(w.depth):
        best = float("-inf")
        lvl, idx = k, j
        while True:
            num = brute_box_integral(w, lvl, idx, 1.0, domain)
            den = float(area_carleson(F(1, 1 << lvl)))
            best = max(best, num / den)
            if lvl == 0:
                break
            lvl, idx = lvl - 1, idx >> 1
        out[(k, j)] = best
    return out


def from_node_values(theta, depth, pairs):
    """Tree weight from ((level, index), value) pairs; unset nodes get 1."""
    vals = np.ones(1 << (depth + 1))
    for (level, index), v in pairs:
        vals[node_id(level, index)] = v
    return TreeWeight(theta, depth, vals)


def from_generators(theta, depth, nodes):
    """Domain of the cells of the (level, index) generator arcs."""
    mask = np.zeros(1 << (depth + 1), dtype=bool)
    for level, index in nodes:
        mask[node_id(level, index)] = True
    return DyadicDomain(theta, depth, mask)


def cell_masses(values, depth, domain=None):
    """Value x cell area per cell of one tree or a stack, 0 in slot 0 and off
    the domain: the input maximal_values once composed with subtree_sums."""
    masses = values * cell_areas(depth)
    masses.T[0] = 0.0
    if domain is not None:
        masses = np.where(domain.mask, masses, 0.0)
    return masses


def weak_type_ratio(w, f, p, lam, domain=None):
    """lambda^p w{Mf > lambda} / ||f||^p_{L^p(w)}, all over the domain."""
    f = np.asarray(f, dtype=np.float64)
    m = maximal_values(f, w.depth, domain)
    mask = domain.mask.copy() if domain is not None else np.ones(len(m), dtype=bool)
    mask[0] = False
    areas = cell_areas(w.depth)
    super_mass = float(np.sum(np.where(mask & (m > lam), w.values * areas, 0.0)))
    fnorm = float(np.sum(np.where(mask, np.abs(f) ** p * w.values * areas, 0.0)))
    return lam ** p * super_mass / fnorm


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


def beta_dyadic_pairs(levels_a, indices_a, levels_b, indices_b):
    """Matrix of dyadic distances from the cells (levels_a, indices_a), one
    per row, to the cells (levels_b, indices_b), one per column."""
    k = levels_a[:, None]
    m = levels_b[None, :]
    kmin = np.minimum(k, m)
    ja = indices_a[:, None] >> (k - kmin)
    jb = indices_b[None, :] >> (m - kmin)
    return np.maximum(k, m) - (kmin - _bit_length(ja ^ jb))


def _bit_length(x):
    out = np.zeros_like(x)
    nz = x > 0
    out[nz] = np.floor(np.log2(x[nz])).astype(out.dtype) + 1
    return out


def brute_l_const(w, domain=None, row_chunk=1024):
    """sup over domain-cell pairs of |log w(a) - log w(b)| / (1 + beta(a, b)).

    Builds the pairwise gap and distance matrices explicitly, `row_chunk`
    rows at a time so that large trees stay within memory.
    """
    mask = domain.mask if domain is not None else np.ones(len(w.values), dtype=bool)
    ids = np.nonzero(mask[1:])[0] + 1
    levels = node_levels(w.depth)[ids]
    indices = ids - (np.int64(1) << levels)
    logv = np.log(w.values[ids])
    best = 0.0
    for start in range(0, len(ids), row_chunk):
        rows = slice(start, start + row_chunk)
        beta = beta_dyadic_pairs(levels[rows], indices[rows], levels, indices)
        gaps = np.abs(logv[rows, None] - logv[None, :])
        best = max(best, float(np.max(gaps / (1.0 + beta))))
    return best


def brute_c_const(w, domain=None):
    """max(1, sup over arcs I above the leaf level of max / min of w over the
    domain cells among T(I) and its children's top halves), arc by arc."""
    best = 1.0
    for i in range(1, 1 << w.depth):
        trio = [float(w.values[c]) for c in (i, 2 * i, 2 * i + 1)
                if domain is None or domain.mask[c]]
        if trio:
            best = max(best, max(trio) / min(trio))
    return best


def brute_cell_ids(depth, theta, modulus, angle):
    """Node ids of the cells of a depth-N tree with offset theta holding the
    points (modulus[i], angle[i]).

    Exact rational arithmetic on the float inputs: the level-k cell (k < N)
    is the top half T(I), depth 1 - |z| in (2^-(k+1), 2^-k] over the arc
    (theta + j 2^-k, theta + (j+1) 2^-k]; the leaf level takes every point
    of depth at most 2^-N.  The level depends only on the modulus and the
    index only on (level, angle), so each is found once per distinct value.
    """
    levels, index, out = {}, {}, []
    for m, a in zip(modulus, angle):
        if m not in levels:
            d, k = 1 - F(m), 0
            while k < depth and d <= F(1, 1 << (k + 1)):
                k += 1
            levels[m] = k
        k = levels[m]
        if (k, a) not in index:
            j = math.ceil((F(a) - F(theta)) % 1 * (1 << k)) - 1
            index[k, a] = j if j >= 0 else (1 << k) - 1
        out.append((1 << k) + index[k, a])
    return out


def brute_good_nodes(theta, domain, depth, threshold=F(1, 18)):
    """good_nodes one node at a time in exact rationals.

    Per level, a few candidate indices around each generator of a nearby
    scale; per candidate, ContinuousDomain.clip_to_top and a Fraction sum
    of the piece areas against threshold * A(T(I)).  Returns (GridNode,
    pieces, area) sorted by node id.
    """
    theta = mod1(theta)
    found = {}
    for k in range(depth + 1):
        step = F(1, 1 << k)
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
            inter = sum((p.area() for p in pieces), F(0))
            if inter >= threshold * area_top(node.length):
                found[(k, j)] = (node, pieces, inter)
    return [found[key] for key in sorted(found)]


def brute_restriction_values(w, theta, domain, depth, nr=4, na=4):
    """Tree values of the restriction to one offset: per node of
    brute_good_nodes, rect_quadrature piece by piece, summed in clip order
    and divided by the exact area; 1 off the good nodes."""
    vals = np.ones(1 << (depth + 1))
    for node, pieces, area in brute_good_nodes(theta, domain, depth):
        integral = sum(rect_quadrature(p, w, nr, na) for p in pieces)
        vals[(1 << node.level) + node.index] = integral / float(area)
    return vals


def per_offset_pipeline(w, p, q, region, depth, theta_count):
    """The offsets of extend_continuous, one offset at a time.

    Per offset (midpoints of a uniform partition of the circle): restrict;
    for p = 1 extend with extend_b1, for p > 1 extend with extend_bp and
    factor the extension with factor_bho_full.  Returns (theta,
    restriction, domain, extension, factorization or None) rows.
    """
    rows = []
    for i in range(theta_count):
        theta = F(2 * i + 1, 2 * theta_count)
        wt, om = dyadic_restriction(w, theta, region, depth)
        if p == 1:
            rows.append((theta, wt, om, extend_b1(wt, q, om), None))
            continue
        ext = extend_bp(wt, p, q, om)
        rows.append((theta, wt, om, ext, factor_bho_full(ext.weight, p)))
    return rows


def full_depth_pipeline(w, p, q, region, depth, theta_count, family_depth):
    """extend_continuous with every tree at the configured depth, below
    the deepest good level too, from the same array cores: restriction,
    extension, factorization for p > 1, survey and gap.  Returns a
    ContinuousExtensionResult without the `tree_depth` constant."""
    thetas = [F(2 * i + 1, 2 * theta_count) for i in range(theta_count)]
    values, masks = _restrict(w, thetas, region, depth)
    if p == 1:
        ext_vals, exts = _extend_b1(thetas, depth, values, masks, q)
        facts = [None] * theta_count
        stacks = [(ext_vals, 1.0)]
    else:
        ext_vals, exts = _extend_bp(thetas, depth, values, masks, p, q, terms=60)
        w1, w2, facts = _factor_bho_full(thetas, depth, ext_vals, p, terms=60)
        stacks = [(w1, 1.0), (w2, 1.0 - p)]
    artifacts = [ThetaArtifact(*row) for row in zip(
        thetas, _tree_rows(thetas, depth, values),
        [DyadicDomain(th, depth, m) for th, m in zip(thetas, masks)], exts, facts)]
    family = default_arc_family(family_depth)
    const, mink = _survey_geo_family(thetas, depth, stacks, p, family)
    big = geo_mean_weight(thetas, depth, stacks)
    r, a = _pieces_mesh(region.pieces(), 10, 32, d_floor=0.5 ** (depth + 1))
    gap = float(np.max(np.abs(np.log(w(r, a)) - np.log(big(r, a)))))
    constants = {"continuous_b1" if p == 1 else "continuous_bp": const,
                 "log_minkowski_margin": mink, "log_gap_sup": gap,
                 "family_size": len(family), "theta_count": theta_count, "depth": depth}
    return ContinuousExtensionResult(weight=big, p=p, q=q, artifacts=artifacts,
                                     constants=constants)


def region_area(region):
    """Exact area of a continuous region without its pieces: the
    generators' band ends and arc ends cut depth and angle into
    rectangles, each wholly inside the region or outside it, as its
    midpoint is (domain_contains)."""
    gens = region.generators
    depths = sorted({F(0)} | {g.length / 2 for g in gens} | {g.length for g in gens})
    angles = sorted({F(0), F(1)} | {mod1(g.left) for g in gens}
                    | {mod1(g.left + g.length) for g in gens})
    total = F(0)
    for d_lo, d_hi in zip(depths, depths[1:]):
        for a_lo, a_hi in zip(angles, angles[1:]):
            if domain_contains(region, (d_lo + d_hi) / 2, (a_lo + a_hi) / 2):
                total += (a_hi - a_lo) * ((1 - d_lo) ** 2 - (1 - d_hi) ** 2)
    return total


def five_probes(arc):
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


def box_mesh(arc, nr, na, grade=4):
    """Midpoint mesh over the Carleson box S(arc) with per-cell areas.

    The depth subdivision is graded toward the boundary by the power
    `grade` (4, quartic, by default; 1 is uniform): boxes reach depth 0 and
    radial powers of 1 - |z|^2 have square-root behavior there, which a
    uniform midpoint rule resolves poorly.
    """
    ell = float(arc.length)
    left = float(arc.left)
    edges = ell * np.linspace(0.0, 1.0, nr + 1) ** grade
    dmid = 0.5 * (edges[:-1] + edges[1:])
    amid = (left + (np.arange(na) + 0.5) * ell / na) % 1.0
    sub = ell / na * ((1 - edges[:-1]) ** 2 - (1 - edges[1:]) ** 2)
    r, a = np.meshgrid(1.0 - dmid, amid, indexing="ij")
    areas = np.repeat(sub[:, None], na, axis=1)
    return r.ravel(), a.ravel(), areas.ravel()


def continuous_bp_constant(w, p, family, nr=6, na=6, grade=4):
    """Survey sup of the B_p product over an arc family by mesh quadrature.

    Evaluates w once per box mesh and reuses the values for the dual power.
    Returns (sup, per-arc list of (arc, value)).
    """
    if p <= 1:
        raise ValueError("use continuous_b1_constant at the endpoint")
    rows = []
    best = 0.0
    for arc in family:
        r, a, areas = box_mesh(arc, nr, na, grade)
        vals = w(r, a)
        total = areas.sum()
        avg_w = float((vals * areas).sum() / total)
        avg_dual = float((vals ** (-1.0 / (p - 1)) * areas).sum() / total)
        prod = avg_w * avg_dual ** (p - 1)
        rows.append((arc, prod))
        best = max(best, prod)
    return best, rows


def continuous_b1_constant(w, family, nr=6, na=6, grade=4):
    """Survey sup over arcs of (box average of w) / (box minimum of w), by
    mesh quadrature and the minimum over the mesh points."""
    rows = []
    best = 0.0
    for arc in family:
        r, a, areas = box_mesh(arc, nr, na, grade)
        vals = w(r, a)
        ratio = float((vals * areas).sum() / areas.sum() / vals.min())
        rows.append((arc, ratio))
        best = max(best, ratio)
    return best, rows


def brute_cell_survey(thetas, depth, stacks, p, family):
    """(sup, log-Minkowski margin) of the averaging survey, cell by cell.

    The breakpoints are Fractions: every offset's finest grid lines and the
    arc endpoints.  For each depth band and angular piece, every tree's
    value is looked up at the piece's midpoint; a box takes the cells of
    the pieces its arc contains and of the bands it meets, with exact
    Fraction areas, in plain loops.  The arguments are those of
    averaging._survey_geo_family; the trees are the rows of the stacks,
    read as Python lists.
    """
    stacks = [(values.tolist(), power) for values, power in stacks]
    points = {F(0)}
    for theta in thetas:
        points.update(mod1(theta + F(j, 1 << depth)) for j in range(1 << depth))
    for arc in family:
        points.update((arc.left, mod1(arc.left + arc.length)))
    cuts = sorted(points) + [F(1)]
    pieces = list(zip(cuts, cuts[1:]))
    widths = [e - s for s, e in pieces]
    bands = [(F(1, 1 << (k + 1)) if k < depth else F(0), F(1, 1 << k), k)
             for k in range(depth + 1)]
    # each tree's leaf-level cell index at every piece's midpoint; its
    # level-k cell index is that index shifted right by depth - k
    leaf = [[[math.floor(mod1((s + e) / 2 - theta) * (1 << depth)) for s, e in pieces]
             for theta in thetas] for _ in stacks]
    # cell (band, piece) -> per stack the list of tree values, and g
    cells = {}
    for lo, hi, k in bands:
        for i in range(len(pieces)):
            per_stack = []
            log_g = 0.0
            for (trees, power), index in zip(stacks, leaf):
                vals = [t[node_id(k, j[i] >> (depth - k))] for t, j in zip(trees, index)]
                mean_log = sum(math.log(v) for v in vals) / len(vals)
                log_g += power * mean_log
                per_stack.append((vals, math.exp(mean_log)))
            cells[k, i] = (per_stack, math.exp(log_g))
    best, margin = 0.0, -math.inf
    for arc in family:
        inside = [i for i, (s, e) in enumerate(pieces)
                  if arc_contains_angle(arc, (s + e) / 2)]
        area = float(area_carleson(arc.length))
        sum_g, sum_dual, min_g = 0.0, 0.0, math.inf
        geo = [0.0] * len(stacks)
        trees_sum = [[0.0] * len(trees) for trees, _ in stacks]
        for lo, hi, k in bands:
            if lo >= arc.length:
                continue
            top = min(hi, arc.length)
            radial = (1 - lo) ** 2 - (1 - top) ** 2
            for i in inside:
                width = widths[i]
                # the exact area, rounded once (int division rounds correctly)
                cell_area = (width.numerator * radial.numerator
                             / (width.denominator * radial.denominator))
                per_stack, g = cells[k, i]
                sum_g += g * cell_area
                if p != 1:
                    sum_dual += g ** (-1.0 / (p - 1)) * cell_area
                min_g = min(min_g, g)
                for s_idx, (vals, geo_val) in enumerate(per_stack):
                    geo[s_idx] += geo_val * cell_area
                    for t_idx, v in enumerate(vals):
                        trees_sum[s_idx][t_idx] += v * cell_area
        avg = sum_g / area
        val = avg / min_g if p == 1 else avg * (sum_dual / area) ** (p - 1)
        best = max(best, val)
        for s_idx, sums in enumerate(trees_sum):
            rhs = math.exp(sum(math.log(x / area) for x in sums) / len(sums))
            margin = max(margin, geo[s_idx] / area / rhs - 1.0)
    return best, margin


def _window_mean_log(logv, th, k, L, origin, span, cuts):
    """Mean over offsets of the band-k log tree value (logv, offsets x 2^k)
    on each piece of the window (origin, origin + span] starting at cuts:
    the value at its start plus cumulative jumps at each offset's lines."""
    step, cells = L >> k, 1 << k
    count = np.arange(max(1, span // step))
    at = ((th - origin) % step)[:, None] + count.astype(th.dtype) * step  # lines from origin on
    cell = ((-((th - origin) // step)) % cells).astype(np.intp)  # right of the first one
    col = (cell[:, None] + count) % cells
    rows = np.arange(len(th))[:, None]
    inside = at < span
    jumps = np.bincount(np.searchsorted(cuts, at[inside]),
                        (logv[rows, col] - logv[rows, col - 1])[inside], minlength=len(cuts))
    return (logv[rows[:, 0], cell - 1].sum() + np.cumsum(jumps)) / len(th)


def window_survey_geo_family(thetas, depth, stacks, p, family):
    """averaging._survey_geo_family as it was: band by band, one angular
    window at a time, each window's mean log from its own calls."""
    arcs = list(family)
    lefts, lengths = [arc.left for arc in arcs], [arc.length for arc in arcs]
    L = math.lcm(1 << (depth + 1), *{x.denominator for xs in (thetas, lefts, lengths) for x in xs})
    th = _scaled(thetas, L)
    shifts = _distinct(th % (L >> depth))
    left, ell = _scaled(lefts, L), _scaled(lengths, L)
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
    tree_sums = [np.zeros((len(th), len(left))) for _ in stacks]
    for k in range(depth + 1):
        logs = [np.log(values[:, 1 << k:2 << k]) for values, _ in stacks]
        for w in range(windows):
            chunks, origin = slice(edges[w], edges[w + 1]), w * span
            rel = starts[chunks] - origin
            # a chunk start on a grid line leaves a zero-width piece, adding nothing
            cuts = np.insert(lines, np.searchsorted(lines, rel), rel)
            width = _over(np.diff(np.append(cuts, span)), L)
            first = np.searchsorted(cuts, rel)
            logg = np.zeros(len(cuts))
            for (_, power), logv, geo in zip(stacks, logs, geo_int):
                mean_log = _window_mean_log(logv, th, k, L, origin, span, cuts)
                logg += power * mean_log
                geo[k, chunks] = np.add.reduceat(width * np.exp(mean_log), first)
            g = np.exp(logg)
            g_int[k, chunks] = np.add.reduceat(width * g, first)
            if p == 1:
                g_min[k, chunks] = np.minimum.reduceat(g, first)
            else:
                dual_int[k, chunks] = np.add.reduceat(width * g ** (-1.0 / (p - 1)), first)
        del logs, logv  # one (offsets, 2^k) array per stack at a time
        for (values, _), sums in zip(stacks, tree_sums):
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


def arc_contains_angle(arc: UnitArc, angle) -> bool:
    """Whether the half-open arc holds the angle (in turns), exactly."""
    if arc.length >= 1:
        return True
    r = mod1(F(angle) - arc.left)
    return 0 < r <= arc.length


def domain_contains(domain, depth, angle) -> bool:
    """Exact membership in a continuous region of the point with depth
    1 - |z| and the given angle: some generator's top holds it."""
    return any(g.length / 2 < depth <= g.length and arc_contains_angle(g, angle)
               for g in domain.generators)


def arc_contains_arc(outer: UnitArc, inner: UnitArc) -> bool:
    """Whether inner is a subset of outer, as half-open arcs mod 1."""
    if outer.length >= 1:
        return True
    if inner.length > outer.length:
        return False
    r = mod1(inner.left - outer.left)
    return r + inner.length <= outer.length


def random_arcs(depth, rng, count):
    """Arcs with a uniform left end and a log-uniform length down to
    2^-depth, each read exactly from its float: their denominators reach
    2^53, which drives the exact integer passes onto Python ints."""
    rng = np.random.default_rng(rng)
    out = []
    for _ in range(count):
        c = F(float(rng.uniform()))
        ell = F(float(np.exp2(-rng.uniform(0, depth))))
        out.append(UnitArc(c, ell))
    return out


def _cells_over_offsets(modulus, angle, thetas):
    """(level, index per offset) of the containing grid cell, vectorized."""
    k = containing_level(1 - F(modulus))
    n = np.int64(1 << k)
    f = ((angle - thetas) % 1.0) * (1 << k)
    j = np.ceil(f).astype(np.int64) - 1
    j = np.where(j < 0, n - 1, np.minimum(j, n - 1))
    return k, j


def _common_ancestor_levels(z, w, thetas):
    """(level of the deeper cell, level of the common ancestor per offset)."""
    kz, jz = _cells_over_offsets(z[0], z[1], thetas)
    kw, jw = _cells_over_offsets(w[0], w[1], thetas)
    kmin = min(kz, kw)
    x = (jz >> (kz - kmin)) ^ (jw >> (kw - kmin))
    bl = np.zeros_like(x)
    nz = x > 0
    bl[nz] = np.floor(np.log2(x[nz])).astype(np.int64) + 1
    return max(kz, kw), kmin - bl


def mean_common_boxes(z, w, resolution_bits=12):
    """Mean over 2^resolution_bits midpoint offsets of the number of grid
    boxes containing both points (modulus, angle in turns), by locating
    each point's cell under every sampled offset."""
    t = 1 << resolution_bits
    thetas = (np.arange(t) + 0.5) / t
    _, common = _common_ancestor_levels(z, w, thetas)
    return float((common + 1).mean())


def weak_separation_ok(seq):
    """True when no two same-generation addresses are nested (disjoint boxes)."""
    by_gen = seq.generation_spans()
    for idxs in by_gen.values():
        addrs = sorted(seq.entries[i].address for i in idxs)
        for a, b in zip(addrs, addrs[1:]):
            if b.startswith(a):
                return False
    return True


def brute_pair_invariants(d1, t1, d2, t2):
    """(rho^2, 1 - rho^2) between anchors given exactly by gap and angle,
    one pair at a time in scalar float arithmetic."""
    dt = mod1(t1 - t2)
    if dt > F(1, 2):
        dt = 1 - dt
    sin_half = math.sin(math.pi * float(dt))
    rprod = float((1 - d1) * (1 - d2))
    cross = 4.0 * rprod * sin_half * sin_half
    num = float(d1 - d2) ** 2 + cross
    den = float(d1 + d2 - d1 * d2) ** 2 + cross
    m1 = float(d1 * (2 - d1))
    m2 = float(d2 * (2 - d2))
    return num / den, (m1 * m2) / den


def brute_azuma_count(M, eps, k, base=""):
    """azuma_counts on a materialized tree, one exact Fraction comparison of
    |M_J - M_base| against eps * k per entry (eps read decimally)."""
    thr = (eps if isinstance(eps, F) else F(str(eps))) * k
    j0 = int(base, 2) if base else 0
    v0 = M.value(base)
    level = M.level_values(len(base) + k)[j0 << k:(j0 + 1) << k]
    return sum(F(abs(float(v) - v0)) > thr for v in level)


def anchor_point(address, grid_theta=0):
    """Exact (boundary gap, angle) of an address anchor: modulus 1 - 2^-k
    under the centre of its interval, shifted by the grid offset."""
    k = len(address)
    index = int(address, 2) if address else 0
    return F(1, 1 << k), mod1(grid_theta + F(2 * index + 1, 1 << (k + 1)))


def seq_anchors(seq):
    """The exact anchor points of a sequence, grid offset included."""
    return [anchor_point(e.address, seq.grid_theta) for e in seq]


def carleson_sum_at(seq, address):
    """Sum of 1 - rho^2(z, z_n) at the anchor of a probe address (the
    origin is the probe ""), through the probe x anchor kernel that
    carleson_sup runs."""
    (_, _, inv), = _pair_blocks([address], [e.address for e in seq])
    total = 0.0
    for x in inv[0].tolist():  # in anchor order, as carleson_sup adds them
        total += x
    return total


def brute_carleson_sup(seq, probes=None):
    """(sup, argmax, box_sup, box_argmax) of carleson_sup, pair by pair."""
    if probes is None:
        probes = default_probe_addresses(seq)
    anchors = seq_anchors(seq)
    best, arg = -math.inf, ""
    for address in probes:
        d, t = anchor_point(address, seq.grid_theta)
        total = sum(brute_pair_invariants(d, t, dq, tq)[1] for dq, tq in anchors)
        if total > best:
            best, arg = total, address
    box_best, box_arg = -math.inf, ""
    prefixes = {e.address[:i] for e in seq for i in range(len(e.address) + 1)}
    for a in sorted(prefixes, key=lambda s: (len(s), s)):
        mu = sum(float(e.mass) for e in seq if e.address.startswith(a))
        ratio = mu * (1 << len(a))
        if ratio > box_best:
            box_best, box_arg = ratio, a
    return best, arg, box_best, box_arg


def brute_trace_sup_i(seq, M, lam, probes=None, r_levels=12):
    """trace_sup_i's sup, argmax and per-radius profile, pair by pair."""
    if probes is None:
        probes = default_probe_addresses(seq)
    anchors = seq_anchors(seq)
    b_entries = np.array([M.value(e.address) for e in seq])
    log_terms = [m * math.log(2.0) - math.log(2.0 - 0.5 ** m)
                 for m in range(1, r_levels + 1)]
    r2s = [(1.0 - 0.5 ** m) ** 2 for m in range(1, r_levels + 1)]
    sup, arg_probe, arg_m = -math.inf, "", 0
    by_radius = [0.0] * r_levels
    for address in probes:
        d, t = anchor_point(address, seq.grid_theta)
        pairs = [brute_pair_invariants(d, t, dq, tq) for dq, tq in anchors]
        rho2 = np.array([r for r, _ in pairs])
        inv = np.array([m for _, m in pairs])
        db2 = (b_entries - M.value(address)) ** 2
        for mi in range(r_levels):
            mask = rho2 < r2s[mi]
            if not np.any(mask):
                continue
            with np.errstate(over="ignore"):
                total = float(np.sum(np.exp(lam * db2[mask] / log_terms[mi]) * inv[mask]))
            by_radius[mi] = max(by_radius[mi], total)
            if total > sup:
                sup, arg_probe, arg_m = total, address, mi + 1
    return {"sup": sup, "argmax_probe": arg_probe, "argmax_r_level": arg_m,
            "by_radius": by_radius}


def brute_trace_weak_l1(seq, M, lam, probe=""):
    """trace_weak_l1's (weak_l1, strong_sum, count, collisions), pair by pair."""
    d, t = anchor_point(probe, seq.grid_theta)
    bz = M.value(probe)
    values = []
    collisions = 0
    for e in seq:
        dq, tq = anchor_point(e.address, seq.grid_theta)
        if dq == d and tq == t:
            collisions += 1
            continue
        inv = brute_pair_invariants(d, t, dq, tq)[1]
        log_inv = -math.log(inv) if inv < 1.0 else 0.0
        db2 = (M.value(e.address) - bz) ** 2
        if log_inv == 0.0:
            a = math.inf if db2 > 0 and lam > 0 else inv
        else:
            x = lam * db2 / log_inv
            a = math.exp(x) * inv if x < 700 else math.inf
        values.append(a)
    values.sort(reverse=True)
    weak = 0.0
    for i, a in enumerate(values, start=1):
        weak = max(weak, i * a)
    return weak, float(sum(values)), len(values), collisions


def dict_crossing_classes(k0, value0, s, depth_budget):
    """martingales._crossing_classes with one dict of live value counts,
    rebuilt at every step, as the builder walked before it kept the live
    run as a list updated by Pascal's rule."""
    live = {value0: 1}
    classes = []
    k = k0
    while k + 2 <= depth_budget and live:
        k += 2
        thr2 = s * _log_inv_mass(k)
        nxt = {}
        for v, c in live.items():
            nxt[v + 1] = nxt.get(v + 1, 0) + c
            nxt[v - 1] = nxt.get(v - 1, 0) + c
        live = {}
        frozen = []
        for v, c in nxt.items():
            if v * v >= thr2:
                frozen.append((v, c))
            else:
                live[v] = c
        for v, c in sorted(frozen, key=lambda vc: -vc[0]):
            classes.append((k, v, c))
    return classes, sum(live.values())


_PAIRS = {1: ("00", "11"), -1: ("01", "10")}


def loop_expand_signs(parent, signs, start, stop):
    """Quarter-digit addresses number `start..stop-1` for a sign path, one
    address at a time, as the builder expanded them before it built each
    path's addresses from one digit array."""
    t = len(signs)
    for mask in range(start, stop):
        parts = [parent]
        for i, sgn in enumerate(signs):
            parts.append(_PAIRS[sgn][(mask >> (t - 1 - i)) & 1])
        yield "".join(parts)


def fraction_build_parents(generations=4, depth_budget=60, scale=2.0, node_budget=1 << 15):
    """counterexample_build's ParentRecords, one list per generation built.

    Each parent walks its own crossing classes and sums and selects its
    mass in Fractions, as the builder did before it shared one walk per
    (level, value) class and counted masses as integers.
    """
    s_list = threshold_sequence(generations, scale)
    parents = [("", 0)]
    out = []
    for s in s_list:
        records, selected, complete = [], [], True
        for parent_addr, parent_val in parents:
            k0 = len(parent_addr)
            pmass = F(1, 1 << k0) * (2 - F(1, 1 << k0))
            quarter, half = pmass / 4, pmass / 2
            classes, _ = dict_crossing_classes(k0, parent_val, s, depth_budget)
            cand = F(0)
            for k, v, c in classes:
                d = F(1, 1 << k)
                cand += (c << ((k - k0) // 2)) * d * (2 - d)
            rec = ParentRecord(
                address=parent_addr, value=parent_val, mass=float(pmass),
                candidate_mass=float(cand), selected_mass=0.0, window=0.0,
                node_count=0, deepest_level=classes[-1][0] if classes else k0,
                complete=False)
            records.append(rec)
            if cand < quarter:
                rec.note = ("first-crossing mass within the depth budget "
                            "falls short of the quarter window")
                complete = False
                continue
            sel_mass, taken = F(0), []
            for k, v, c in classes:
                if sel_mass >= quarter:
                    break
                d = F(1, 1 << k)
                m = d * (2 - d)
                if sel_mass + m > half:
                    continue
                n_take = min(c << ((k - k0) // 2), math.ceil((quarter - sel_mass) / m),
                             math.floor((half - sel_mass) / m))
                if n_take <= 0:
                    continue
                if len(taken) + n_take > node_budget:
                    rec.note = "node budget exhausted during selection"
                    break
                if (k - k0) // 2 > 32:
                    rec.note = "crossing class too deep to enumerate addresses"
                    break
                got = 0
                for signs in _sign_paths(k0, parent_val, s, k, v):
                    take_here = min(1 << len(signs), n_take - got)
                    taken += [(a, v) for a in loop_expand_signs(parent_addr, signs, 0, take_here)]
                    got += take_here
                    if got >= n_take:
                        break
                sel_mass += n_take * m
            rec.selected_mass = float(sel_mass)
            rec.window = float(sel_mass / pmass)
            rec.node_count = len(taken)
            rec.complete = quarter <= sel_mass <= half
            if not rec.complete:
                complete = False
            selected += taken
        out.append(records)
        if not complete:
            break
        parents = selected
    return out


def plain_level(d):
    """The k with 2^-(k+1) < d <= 2^-k, by scanning k up from 0."""
    k = 0
    while F(1, 1 << (k + 1)) >= d:
        k += 1
    return k


def _containment_chance(m, ell):
    """Offset measure of the event that an arc of length ell lies inside
    one level-m grid arc: 1 for the full circle, max(0, 1 - 2^m ell) below."""
    if m == 0:
        return F(1)
    return max(F(0), 1 - (1 << m) * ell)


def fraction_theta_measure_spectrum(arc):
    """averaging.theta_measure_spectrum with every chance a Fraction, as
    it was computed before the chances became integers over ell's
    denominator."""
    ell = arc.length
    if ell >= 1:
        return {0: F(1)}
    n = plain_level(ell)
    cap = n if (1 << n) * ell == 1 else n + 1
    out = {0: F(0)}
    for m in range(n + 1):
        mass = _containment_chance(m, ell) - _containment_chance(m + 1, ell)
        if mass > 0:
            out[cap - m] = mass
    return out


def fraction_avg_beta_check(pairs):
    """averaging.avg_beta_check with the circular distance and every
    containment chance a Fraction, the mean rounded by float(Fraction)."""
    ratios, means, maxima, pointwise = [], [], [], []
    for z, w in pairs:
        kz = plain_level(1 - F(z[0]))
        kw = plain_level(1 - F(w[0]))
        deeper, kmin = max(kz, kw), min(kz, kw)
        d = (F(z[1]) - F(w[1])) % 1
        delta = min(d, 1 - d)
        chances = [_containment_chance(k, delta) for k in range(1, kmin + 1)]
        mean_bt = float(deeper - sum(chances))
        smallest = deeper - sum(c > 0 for c in chances)
        zc = z[0] * np.exp(2j * np.pi * z[1])
        wc = w[0] * np.exp(2j * np.pi * w[1])
        beta = beta_hyperbolic(zc, wc)
        ratios.append(mean_bt / (1.0 + beta))
        means.append(mean_bt)
        maxima.append(deeper if delta > 0 else deeper - kmin)
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


def maximal_norm_bound(p, bracket):
    """Full-disc (Lerner) bound ||M||_{L^p(w)} <= 4 (p^2/(p-1))^{1/p} [w]^{1/(p-1)}."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return 4.0 * (p * p / (p - 1)) ** (1.0 / p) * bracket ** (1.0 / (p - 1))


def full_series(values, mask, s, depth, p, terms):
    """factorization._series at a fixed length: every row sums all `terms`
    terms of f = sum_k S^k(u) / (2s)^k and takes its tail from the last one,
    as the series did before its rows stopped once their f stopped moving.
    Returns (f, tail ratio per row, terms used per row), as _series does.
    """
    two_s = 2.0 * s[..., None]
    term = mask.astype(np.float64)
    f = term.copy()
    for _ in range(terms):
        term = np.where(mask, op_s(term, values, depth, p) / two_s, 0.0)
        f = f + term
    tail = op_s(term, values, depth, p) / two_s
    return f, np.max(np.where(mask, tail, -np.inf), axis=-1), np.full(s.shape, terms)


def per_tree_geo_mean(thetas, depth, stacks):
    """averaging.geo_mean_weight as it was: every tree, a row of a stack,
    looks up each point's level and node on its own, through eval_polar;
    the stacks' means are raised to their powers and multiplied after."""
    families = [([TreeWeight(theta, depth, row) for theta, row in zip(thetas, values)], power)
                for values, power in stacks]

    def fn(r, a):
        g = 1.0
        for trees, power in families:
            acc = np.zeros_like(r, dtype=float)
            for t in trees:
                acc += np.log(t.eval_polar(r, a))
            g = g * np.exp(acc / len(trees)) ** power
        return g

    return fn


def per_piece_box_product(w, p, domain, arc, nr=6, na=6):
    """averaging.restricted_box_product as it was, with the p = 1 branch of
    restriction_certificate: rect_quadrature piece by piece, summed in clip
    order, and at p = 1 the average over the least value on the mesh."""
    pieces = domain.clip_to_box(arc)
    if not pieces:
        return None
    ell = arc.length
    area = float(ell * (1 - (1 - ell) ** 2))
    int_w = sum(rect_quadrature(pc, w, nr, na) for pc in pieces)
    if p == 1:
        r_m, a_m = _pieces_mesh(pieces, nr, na)
        return (int_w / area) / float(np.min(w(r_m, a_m)))

    def dual(r, a):
        return w(r, a) ** (-1.0 / (p - 1))

    int_dual = sum(rect_quadrature(pc, dual, nr, na) for pc in pieces)
    return (int_w / area) * (int_dual / area) ** (p - 1)


def fraction_survey_geo_family(thetas, depth, stacks, p, family):
    """averaging._survey_geo_family with its Fraction set-up: each arc's
    left end rebuilt from its center through mod1, and the finest-line
    shifts taken as Fractions modulo 2^-N before they are scaled."""
    arcs = list(family)
    lefts = [mod1(arc.center - arc.length / 2) for arc in arcs]
    L = math.lcm(1 << (depth + 1), *(theta.denominator for theta in thetas),
                 *(x.denominator for arc, left in zip(arcs, lefts) for x in (left, arc.length)))
    shifts = sorted({theta % F(1, 1 << depth) for theta in thetas})
    return _survey_scaled(depth, stacks, p, L, _scaled(thetas, L), _scaled(lefts, L),
                          _scaled((arc.length for arc in arcs), L), _scaled(shifts, L))


def repeat_ancestor_max(avg, depth):
    """weights.ancestor_max as it was: each level from a fresh np.repeat of
    its parents' maxima."""
    out = np.empty_like(avg)
    o, a = out.T, avg.T
    o[0] = np.nan
    o[1] = a[1]
    for k in range(1, depth + 1):
        lo, hi = 1 << k, 1 << (k + 1)
        o[lo:hi] = np.maximum(np.repeat(o[lo >> 1 : hi >> 1], 2, axis=0), a[lo:hi])
    return out


def slice_add_subtrees(out, depth):
    """weights.subtree_sums in place as it was before the tree workspace:
    fresh slices and a temporary per level, bottom-up."""
    o = out.T
    for k in range(depth - 1, -1, -1):
        lo, mid, hi = 1 << k, 1 << (k + 1), 1 << (k + 2)
        o[lo:mid] += o[mid:hi:2] + o[mid + 1 : hi : 2]


def slice_max_ancestors(out, depth):
    """weights.ancestor_max in place as it was before the tree workspace:
    fresh slices per level, top-down; slot 0 becomes NaN."""
    o = out.T
    o[0] = np.nan
    for k in range(1, depth + 1):
        lo, hi = 1 << k, 1 << (k + 1)
        for children in (o[lo:hi:2], o[lo + 1 : hi : 2]):
            np.maximum(o[lo >> 1 : lo], children, out=children)


def slice_maximal_values(values, depth, mask=None):
    """weights.maximal_values as it was, on the slice-per-level kernels."""
    out = np.abs(values, dtype=np.float64)
    out *= cell_areas(depth)
    if mask is not None:
        np.copyto(out, 0.0, where=~mask)
    slice_add_subtrees(out, depth)
    out /= box_area_vector(depth)
    slice_max_ancestors(out, depth)
    return out


def stacked_c_values(values, mask, depth):
    """weights._c_values as it was: the trios of values and of the mask
    stacked, then masked and reduced along the stack."""
    mask, half = np.broadcast_to(mask, values.shape), 1 << depth
    trio_vals = np.stack([values[..., 1:half], values[..., 2::2], values[..., 3::2]])
    trio_mask = np.stack([mask[..., 1:half], mask[..., 2::2], mask[..., 3::2]])
    hi_v = np.where(trio_mask, trio_vals, -np.inf).max(axis=0)
    lo_v = np.where(trio_mask, trio_vals, np.inf).min(axis=0)
    present = trio_mask.any(axis=0)
    return np.max(np.where(present, hi_v, 1.0) / np.where(present, lo_v, 1.0), axis=-1,
                  initial=1.0)


def two_buffer_op_s(g, values, depth, p):
    """factorization.op_s as it was: each maximal function in its own
    buffer, then M(g w) / w + M(g^{1/(p-1)})^{p-1}."""
    m1 = maximal_values(g * values, depth)
    m2 = maximal_values(np.abs(g) ** (1.0 / (p - 1)), depth)
    return m1 / values + m2 ** (p - 1)


def per_weight_constants(depth, count, p_grid, sigma, seed):
    """The rows and the largest duality gap of the constants command as it
    was: one bp_constant call per weight, exponent and route."""
    rng = np.random.default_rng(seed)
    rows, worst = [], 0.0
    for i in range(count):
        w = random_log_walk(depth, rng=rng, sigma=sigma)
        for p in p_grid:
            bp = bp_constant(w, p)
            dual = bp_constant(w.power(-1.0 / (p - 1.0)), p / (p - 1.0))
            gap = abs(dual - bp ** (1.0 / (p - 1.0))) / max(1.0, dual)
            worst = max(worst, gap)
            rows.append((i, p, bp, dual, gap))
    return rows, worst


def loop_average_rows(cfg, rng=None):
    """The arc rows, pair rows and results of the average command as it
    was: per arc one scalar draw of its center and one of its length, the
    Fraction offset spectrum, its masses checked and ranked as integers
    over the length's denominator; per pair two scalar uniform draws of
    two values.  `rng` stands in for the generator seeded with cfg's seed."""
    rng = np.random.default_rng(cfg["seed"]) if rng is None else rng
    grid = 1 << 20
    arc_rows, sum_violations, bucket_ratio_max = [], 0, F(0)
    for i in range(cfg["arcs"]):
        center = F(int(rng.integers(0, grid)), grid)
        length = F(int(rng.integers(1, grid + 1)), grid)
        spec = fraction_theta_measure_spectrum(UnitArc(center, length))
        q = length.denominator
        counts = {k: mass.numerator * (q // mass.denominator) for k, mass in spec.items()}
        sum_violations += sum(counts.values()) != q
        worst = F(max((c << k for k, c in counts.items()), default=0), q << 2)
        bucket_ratio_max = max(bucket_ratio_max, worst)
        arc_rows.append((i, float(center), float(length), len(spec), float(worst)))
    pairs = []
    for _ in range(cfg["pairs"]):
        r1, r2 = rng.uniform(0.05, 0.999, 2)
        a1, a2 = rng.uniform(0, 1, 2)
        pairs.append(((r1, a1), (r2, a2)))
    beta = avg_beta_check(pairs)
    beta_rows = [(i, beta["mean_beta_theta"][i], beta["max_beta_theta"][i],
                  float(beta["ratios"][i])) for i in range(len(pairs))]
    results = {"arcs": cfg["arcs"], "pairs": cfg["pairs"], "sum_violations": sum_violations,
               "bucket_ratio_max": float(bucket_ratio_max), "max_ratio": beta["max_ratio"],
               "mean_ratio": beta["mean_ratio"]}
    return arc_rows, beta_rows, results


def loop_random_pm1(depth, seed):
    """random_pm1's levels as it built them: the parent level repeated
    plus an interleaved +-1 bump, one draw of signs per level."""
    rng = np.random.default_rng(seed)
    levels = [np.zeros(1, dtype=np.int8)]
    for n in range(1, depth + 1):
        parent = np.repeat(levels[-1], 2)
        sign = np.where(rng.integers(0, 2, size=1 << (n - 1)) == 0, np.int8(1), np.int8(-1))
        bump = np.empty(1 << n, dtype=np.int8)
        bump[0::2] = sign
        bump[1::2] = -sign
        levels.append(parent + bump)
    return levels
