"""Offset averaging: exact region algebra, good nodes, continuous pipelines."""

import math
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discweights import averaging, extension, factorization, weights
from discweights.averaging import (
    ContinuousDomain,
    avg_beta_check,
    default_arc_family,
    dyadic_restriction,
    extend_continuous,
    geo_mean_weight,
    good_nodes,
    good_nodes_many,
    rect_quadrature,
    restricted_box_product,
    restriction_certificate,
    theta_measure_spectrum,
)
from discweights.averaging import _pieces_mesh, _survey_geo_family
from discweights.fixtures import CONTINUOUS_FIXTURES, continuous_fixture, sqrt_weight
from discweights.geometry import (
    GridNode,
    UnitArc,
    area_top,
    beta_hyperbolic,
    containing_level,
    mod1,
)
from discweights.weights import TreeWeight, osc_constants, random_log_walk

from helpers import (
    arc_contains_angle,
    arc_contains_arc,
    brute_cell_survey,
    brute_good_nodes,
    brute_restriction_values,
    continuous_b1_constant,
    continuous_bp_constant,
    domain_contains,
    five_probes,
    fraction_avg_beta_check,
    fraction_survey_geo_family,
    fraction_theta_measure_spectrum,
    from_node_values,
    full_depth_pipeline,
    mean_common_boxes,
    per_offset_pipeline,
    per_piece_box_product,
    per_tree_geo_mean,
    random_arcs,
    region_area,
    window_survey_geo_family,
)


def scale_cap(ell):
    """The N with 2^-N <= ell < 2^{-N+1}, found by plain scanning."""
    n = 0
    while F(1, 1 << n) > ell:
        n += 1
    return n


def oracle_spectrum(arc):
    """Predecessor-scale histogram by sweeping an exact midpoint theta grid.

    Containment is decided by the geometry module's arc predicate, not by
    the residue formula; the theta grid resolves every breakpoint of the
    piecewise-affine condition, and midpoints never sit on one, so the
    histogram equals the Lebesgue measure exactly.
    """
    ell, left = arc.length, arc.left
    n = containing_level(ell)
    cap = scale_cap(ell)
    q = math.lcm(1 << n, left.denominator, ell.denominator)
    right = mod1(left + ell)
    counts = {}
    for i in range(q):
        theta = F(2 * i + 1, 2 * q)
        level = 0
        for m in range(n, 0, -1):
            step = F(1, 1 << m)
            rel = mod1(right - theta)
            j = -(-rel.numerator * (1 << m) // rel.denominator) - 1
            if j < 0:
                j = (1 << m) - 1
            if arc_contains_arc(GridNode(theta, m, j).arc(), arc):
                level = m
                break
        key = cap - level
        counts[key] = counts.get(key, F(0)) + F(1, q)
    return counts


class TestThetaSpectrum:
    def test_interval_sweep_oracle(self):
        arcs = [
            UnitArc(F(1, 2), F(1, 5)),
            UnitArc(F(1, 3), F(1, 7)),
            UnitArc(F(3, 7), F(5, 32)),
            UnitArc(F(0), F(3, 8)),
            UnitArc(F(9, 11), F(2, 3)),
        ]
        for arc in arcs:
            spec = {k: v for k, v in theta_measure_spectrum(arc).items() if v > 0}
            assert spec == oracle_spectrum(arc)

    def test_frozen_one_fifth(self):
        out = theta_measure_spectrum(UnitArc(F(1, 2), F(1, 5)))
        assert out == {0: F(0), 1: F(1, 5), 2: F(2, 5), 3: F(2, 5)}

    def test_dyadic_alignment_is_null(self):
        out = theta_measure_spectrum(UnitArc(F(3, 16), F(1, 8)))
        assert out[0] == 0
        assert sum(out.values()) == 1

    def test_full_circle(self):
        assert theta_measure_spectrum(UnitArc(F(1, 2), F(1))) == {0: F(1)}

    @given(num=st.integers(1, 199), den=st.integers(2, 200), c=st.integers(0, 199))
    @settings(max_examples=150, deadline=None)
    def test_partition_and_bucket_decay(self, num, den, c):
        if num >= den:
            num = den - 1
        arc = UnitArc(F(c, 200), F(num, den))
        out = theta_measure_spectrum(arc)
        assert sum(out.values()) == 1
        for k, mass in out.items():
            assert mass <= F(4, 1 << k)

    def test_equals_fraction_oracle(self):
        rng = np.random.default_rng(43)
        grid = 1 << 20
        arcs = [UnitArc(F(int(rng.integers(0, grid)), grid),
                        F(int(rng.integers(1, grid + 1)), grid)) for _ in range(1000)]
        arcs += [UnitArc(F(1, 3), F(1)), UnitArc(F(3, 16), F(1, 8)),
                 UnitArc(F(0), F(1, 2)), UnitArc(F(1, 2), F(1, 1 << 20)),
                 UnitArc(F(1, 2), F(1, 5)), UnitArc(F(2, 7), F(1, 3))]
        for arc in arcs:
            got = theta_measure_spectrum(arc)
            assert list(got.items()) == list(fraction_theta_measure_spectrum(arc).items())
            assert all(type(v) is F for v in got.values())


class TestRegionAlgebra:
    def test_single_generator_matches_top_area(self):
        for ell in [F(1, 5), F(3, 7), F(1), F(2, 3), F(1, 64)]:
            dom = ContinuousDomain([UnitArc(F(1, 3), ell)])
            assert region_area(dom) == area_top(ell)

    def test_union_inclusion_exclusion_frozen(self):
        dom = ContinuousDomain([UnitArc(F(1, 8), F(1, 4)), UnitArc(F(1, 4), F(1, 4))])
        assert region_area(dom) == F(39, 512)

    def test_pieces_are_disjoint_and_tile(self):
        _, dom = continuous_fixture("chain_wrap")
        pieces = dom.pieces()
        assert sum((p.area() for p in pieces), F(0)) == region_area(dom)
        for i, a in enumerate(pieces):
            for b in pieces[i + 1:]:
                d_overlap = min(a.d_hi, b.d_hi) - max(a.d_lo, b.d_lo)
                if d_overlap <= 0:
                    continue
                lo = max(a.ang_start, b.ang_start)
                hi = min(a.ang_start + a.ang_len, b.ang_start + b.ang_len)
                assert hi <= lo

    @given(dnum=st.integers(1, 299), anum=st.integers(0, 299))
    @settings(max_examples=120, deadline=None)
    def test_contains_agrees_with_pieces(self, dnum, anum):
        _, dom = continuous_fixture("pair_overlap")
        d, ang = F(dnum, 300), F(anum, 300)
        in_pieces = any(
            p.d_lo < d <= p.d_hi and p.ang_start < ang <= p.ang_start + p.ang_len
            for p in dom.pieces()
        )
        assert domain_contains(dom, d, ang) == in_pieces

    def test_monte_carlo_union_area(self):
        _, dom = continuous_fixture("pair_overlap")
        rng = np.random.default_rng(5)
        n = 200_000
        r = np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(size=n)
        hits = sum(
            domain_contains(dom, F(1) - F(float(ri)), F(float(ai)))
            for ri, ai in zip(r, ang)
        )
        p = float(region_area(dom))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 5 * sigma

    def test_clip_to_top_of_aligned_generator(self):
        node = GridNode(0, 3, 5)
        dom = ContinuousDomain([node.arc()])
        pieces = dom.clip_to_top(node)
        assert sum((p.area() for p in pieces), F(0)) == area_top(node.length)

    def test_clip_to_box_contains_clip_to_top(self):
        _, dom = continuous_fixture("wide_plus_thin")
        node = GridNode(F(1, 7), 2, 1)
        top = sum((p.area() for p in dom.clip_to_top(node)), F(0))
        box = sum((p.area() for p in dom.clip_to_box(node.arc())), F(0))
        assert box >= top


class TestGoodNodes:
    def test_aligned_dyadic_generator_is_good(self):
        node = GridNode(0, 3, 5)
        dom = ContinuousDomain([node.arc()])
        goods = good_nodes(0, dom, 6)
        assert any(n.level == 3 and n.index == 5 for n, _, _ in goods)

    def test_threshold_is_inclusive_at_exactly_one_eighteenth(self):
        # generator of length 1/4 whose arc overlaps grid arc (2,2) in
        # exactly 1/72 of the circle, i.e. 1/18 of the arc length; the
        # bands coincide, so the area ratio is exactly 1/18
        dom = ContinuousDomain([UnitArc(F(31, 36), F(1, 4))])
        goods = {(n.level, n.index) for n, _, _ in good_nodes(0, dom, 5)}
        assert goods == {(2, 2), (2, 3)}
        ratios = {
            (n.level, n.index): area / area_top(n.length)
            for n, _, area in good_nodes(0, dom, 5)
        }
        assert ratios[(2, 2)] == F(1, 18)

    def test_just_below_threshold_is_out(self):
        dom = ContinuousDomain([UnitArc(F(31, 36) + F(1, 720), F(1, 4))])
        goods = {(n.level, n.index) for n, _, _ in good_nodes(0, dom, 5)}
        assert goods == {(2, 3)}

    def test_full_tree_scan_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            arcs = [
                UnitArc(F(int(rng.integers(0, 360)), 360),
                        F(int(rng.integers(8, 120)), 360))
                for _ in range(int(rng.integers(1, 4)))
            ]
            theta = F(int(rng.integers(0, 64)), 64)
            dom = ContinuousDomain(arcs)
            fast = {(n.level, n.index) for n, _, _ in good_nodes(theta, dom, 6)}
            slow = set()
            for k in range(7):
                for j in range(1 << k):
                    node = GridNode(theta, k, j)
                    area = sum((p.area() for p in dom.clip_to_top(node)), F(0))
                    if area >= area_top(node.length) / 18:
                        slow.add((k, j))
            assert fast == slow

    def test_nonempty_and_generators_met_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            arcs = [
                UnitArc(F(int(rng.integers(0, 720)), 720),
                        F(int(rng.integers(12, 720)), 720))
                for _ in range(int(rng.integers(1, 4)))
            ]
            theta = F(int(rng.integers(0, 4096)), 4096)
            dom = ContinuousDomain(arcs)
            goods = good_nodes(theta, dom, 8)
            assert goods, (theta, arcs)
            for g in arcs:
                assert any(
                    _arcs_overlap(g, n.arc()) for n, _, _ in goods
                ), (theta, g)

    def test_batched_matches_oracle_randomized(self):
        """Node ids, exact areas and clip pieces of every offset, against the
        one-node-at-a-time Fraction scan, on wrapping and overlapping arcs."""
        rng = np.random.default_rng(31)
        paths = set()
        for case in range(16):
            depth = case % 8
            count = (1, 7, 64, 128)[case % 4]
            den = int(rng.choice([360, 720, 1001, 2310]))
            arcs = [UnitArc(F(int(rng.integers(0, den // 20)), den),   # wraps through 0
                            F(int(rng.integers(den // 40, den // 2)), den))]
            arcs += [UnitArc(F(int(rng.integers(0, den)), den),
                             F(int(rng.integers(den // 300 + 1, den)), den))
                     for _ in range(int(rng.integers(1, 4)))]
            dom = ContinuousDomain(arcs)
            if case < 8:
                thetas = [F(2 * i + 1, 2 * count) for i in range(count)]
            else:
                thetas = [F(int(rng.integers(0, 997)), 997) for _ in range(count)]
            got = good_nodes_many(thetas, dom, depth)
            assert (got.area.dtype == object) == (18 * got.denom ** 3 >= 1 << 63)
            paths.add(got.area.dtype)
            for t, theta in enumerate(thetas):
                rows = np.flatnonzero(got.offset == t)
                want = brute_good_nodes(theta, dom, depth)
                assert got.node[rows].tolist() == \
                       [(1 << n.level) + n.index for n, _, _ in want], (case, theta)
                assert [F(int(a), got.denom ** 3) for a in got.area[rows]] == \
                       [area for _, _, area in want]
                if t < 8:
                    assert good_nodes(theta, dom, depth) == want
        assert paths == {np.dtype(np.int64), np.dtype(object)}

    def test_python_int_path_matches_oracle(self):
        """Float-born arcs put L near 2^62, so 18 L^3 passes 2^63: the scan
        runs on Python ints and must still match the oracle exactly."""
        arcs = [random_arcs(3, 5, 1)[0],
                UnitArc(F(float(np.float64(0.8125) + 2.0 ** -40)), F(1, 5)),
                UnitArc(F(1, 3), F(1, 7))]
        dom = ContinuousDomain(arcs)
        thetas = [F(2 * i + 1, 14) for i in range(7)]
        got = good_nodes_many(thetas, dom, 6)
        assert 18 * got.denom ** 3 >= 1 << 63
        assert got.area.dtype == object
        for theta in thetas:
            assert good_nodes(theta, dom, 6) == brute_good_nodes(theta, dom, 6)
        w = sqrt_weight()
        values, _ = averaging._restrict(w, thetas, dom, 6)
        for theta, row in zip(thetas, values):
            assert np.array_equal(row, brute_restriction_values(w, theta, dom, 6))

    def test_fixtures_take_the_int64_path(self):
        for name in CONTINUOUS_FIXTURES:
            _, dom = continuous_fixture(name)
            for depth, count in ((6, 64), (7, 128)):
                thetas = [F(2 * i + 1, 2 * count) for i in range(count)]
                got = good_nodes_many(thetas, dom, depth)
                assert 18 * got.denom ** 3 < 1 << 63
                assert got.area.dtype == np.int64

    def test_five_probes_sit_inside_their_top(self):
        for arcs in CONTINUOUS_FIXTURES.values():
            for g in arcs:
                for d, ang in five_probes(g):
                    assert g.length / 2 < d <= g.length
                    assert arc_contains_angle(g, ang)

    def test_five_probe_cells_cover_the_generator_top(self):
        """Every cell meeting T(g) is a probe cell: between 1 and 5 of them."""
        for arcs in CONTINUOUS_FIXTURES.values():
            for g in arcs:
                for theta in (F(0), F(1, 3), F(1, 7)):
                    probe_cells = {_cell_of(theta, d, a) for d, a in five_probes(g)}
                    assert 1 <= len(probe_cells) <= 5
                    for i in range(6):
                        d = g.length / 2 + (2 * i + 1) * g.length / 24
                        for j in range(6):
                            ang = mod1(g.left + (2 * j + 1) * g.length / 12)
                            assert _cell_of(theta, d, ang) in probe_cells


def _cell_of(theta, d, ang):
    k = containing_level(d)
    rel = mod1(ang - theta)
    j = -(-rel.numerator * (1 << k) // rel.denominator) - 1
    if j < 0:
        j = (1 << k) - 1
    return k, j


def _arcs_overlap(a, b):
    rel = mod1(b.left - a.left)
    if rel < a.length:
        return True
    rel2 = mod1(a.left - b.left)
    return rel2 < b.length


class TestDyadicRestriction:
    def test_constant_weight(self):
        _, dom = continuous_fixture("pair_overlap")
        w = lambda r, a: np.full_like(r, 2.5)
        wt, om = dyadic_restriction(w, F(1, 7), dom, 7)
        ids = np.flatnonzero(om.mask)
        assert len(ids) > 0
        assert np.allclose(wt.values[ids], 2.5, rtol=1e-12)
        assert np.all(wt.values[~om.mask] == 1.0)

    def test_quadrature_against_radial_antiderivative(self):
        """One minus r integrates in closed form over any polar rectangle."""
        _, dom = continuous_fixture("chain_wrap")
        w = lambda r, a: 1.0 - r
        for rect in dom.pieces():
            r_out, r_in = 1 - rect.d_lo, 1 - rect.d_hi

            def prim(r):
                return float(r) ** 2 - 2.0 * float(r) ** 3 / 3.0

            exact = float(rect.ang_len) * (prim(r_out) - prim(r_in))
            assert rect_quadrature(rect, w, 16, 2) == pytest.approx(exact, rel=1e-4)
            assert rect_quadrature(rect, w, 4, 2) == pytest.approx(exact, rel=2e-2)

    def test_averages_lie_between_extremes(self):
        w, dom = continuous_fixture("pair_overlap")
        theta = F(1, 3)
        wt, om = dyadic_restriction(w, theta, dom, 7)
        for node, pieces, _ in good_nodes(theta, dom, 7):
            mesh_r, mesh_a = [], []
            for rect in pieces:
                d = np.linspace(float(rect.d_lo), float(rect.d_hi), 9)[1:]
                a = float(rect.ang_start) + np.linspace(0, float(rect.ang_len), 9)[1:]
                dd, aa = np.meshgrid(d, a % 1.0, indexing="ij")
                mesh_r.append(1 - dd.ravel())
                mesh_a.append(aa.ravel())
            vals = w(np.concatenate(mesh_r), np.concatenate(mesh_a))
            got = wt.values[(1 << node.level) + node.index]
            assert vals.min() - 1e-3 <= got <= vals.max() + 1e-3

    def test_restriction_certificates_on_fixtures(self):
        for name in CONTINUOUS_FIXTURES:
            w, dom = continuous_fixture(name)
            for theta in (F(1, 7), F(2, 5)):
                wt, om = dyadic_restriction(w, theta, dom, 7)
                for p, q in [(2.0, 2.0), (1.5, 2.0), (1.0, 2.0)]:
                    cert = restriction_certificate(w, p, q, wt, om, dom)
                    assert cert.passed, (name, theta, p, cert.as_dict())

    def test_oscillation_of_restriction_is_finite(self):
        w, dom = continuous_fixture("wide_plus_thin")
        wt, om = dyadic_restriction(w, F(1, 5), dom, 7)
        rep = osc_constants(wt, om)
        assert np.isfinite(rep.l_const) and np.isfinite(rep.c_const)

    def test_offset_without_good_nodes_is_named(self):
        dom = ContinuousDomain([UnitArc(F(1, 3), F(1, 1000))])
        with pytest.raises(ValueError, match="offset 1/7 failed: no good nodes"):
            dyadic_restriction(sqrt_weight(), F(1, 7), dom, 3)

    def test_non_finite_samples_raise(self):
        _, dom = continuous_fixture("pair_overlap")
        bad = lambda r, a: np.full_like(r, np.nan)
        with pytest.raises(ValueError):
            dyadic_restriction(bad, F(1, 7), dom, 6)


class TestRestrictedBoxProduct:
    """restricted_box_product, one quadrature of all of a box's pieces per
    integrand, against rect_quadrature piece by piece and, at p = 1, the
    mesh minimum (helpers.per_piece_box_product): the same float, bitwise."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_matches_per_piece_quadrature(self, name, p):
        w, dom = continuous_fixture(name)
        grid = [GridNode(F(1, 7), k, j).arc() for k in range(6) for j in range(0, 1 << k, 3)]
        several = 0
        for arc in list(dom.generators) + grid:
            got = restricted_box_product(w, p, dom, arc)
            assert got == per_piece_box_product(w, p, dom, arc), arc
            several += got is not None and len(dom.clip_to_box(arc)) > 1
        assert several >= 3


def as_stack(trees):
    """The offsets, depth and (offsets, 2^(N+1)) values of a list of trees."""
    return [t.theta for t in trees], trees[0].depth, np.stack([t.values for t in trees])


def powered(arrays, p):
    """The stacks of extend_continuous: one at p = 1, w1 and w2 with their
    powers 1 and 1 - p above it."""
    return list(zip(arrays, (1.0, 1.0 - p)))


class TestGeoAverage:
    def test_identical_trees(self):
        t = random_log_walk(5, seed=3)
        thetas, depth, values = as_stack([t, t, t])
        geo = geo_mean_weight(thetas, depth, [(values, 1.0)])
        r = np.array([0.3, 0.9, 0.97])
        a = np.array([0.1, 0.5, 0.9])
        assert np.allclose(geo(r, a), t.eval_polar(r, a))

    def test_two_point_family_geometric_mean(self):
        thetas, depth, values = as_stack([TreeWeight.constant(0.7, 4), TreeWeight.constant(2.8, 4)])
        out = geo_mean_weight(thetas, depth, [(values, 1.0)])(np.array([0.5]), np.array([0.25]))
        assert out[0] == pytest.approx(1.4, rel=1e-12)

    def test_powers_of_two_stacks(self):
        """Stacks of constants 2 and 3 with powers 1 and -2 give 2 / 9."""
        thetas, values = [F(1, 4), F(3, 4)], np.ones((2, 32))
        geo = geo_mean_weight(thetas, 4, [(2.0 * values, 1.0), (3.0 * values, -2.0)])
        assert geo(np.array([0.2, 0.99]), 0.5) == pytest.approx(2.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 37])
    def test_blocks_of_trees_match_per_tree_sums(self, count):
        """The trees are summed GEO_BLOCK at a time, the running sums carried
        between blocks: bitwise the per-tree sums, at any remainder."""
        assert averaging.GEO_BLOCK == 16
        rng = np.random.default_rng(600 + count)
        trees = [random_log_walk(5, rng=rng, sigma=0.9, theta=F(i, count + 2))
                 for i in range(count)]
        thetas, depth, values = as_stack(trees)
        r = rng.uniform(0.0, 1.0, size=300)
        a = rng.uniform(0.0, 1.0, size=300)
        for stacks in ([(values, 1.0)], [(values, 1.0), (values[::-1] ** 0.5, -1.5)]):
            got = geo_mean_weight(thetas, depth, stacks)(r, a)
            assert got.tobytes() == per_tree_geo_mean(thetas, depth, stacks)(r, a).tobytes()

    def test_log_minkowski_margin_random_families(self):
        family = default_arc_family(3)
        for seed in range(6):
            trees = [random_log_walk(5, seed=100 + seed * 8 + i, sigma=0.8)
                     for i in range(8)]
            thetas, depth, values = as_stack(trees)
            _, margin = _survey_geo_family(thetas, depth, [(values, 1.0)], 1, family)
            assert margin <= 1e-9

    def test_log_minkowski_strict_on_anticorrelated_pair(self):
        up = from_node_values(0, 1, [((1, 0), 9.0), ((1, 1), 1.0)])
        down = from_node_values(0, 1, [((1, 0), 1.0), ((1, 1), 9.0)])
        thetas, depth, values = as_stack([up, down])
        _, margin = _survey_geo_family(thetas, depth, [(values, 1.0)], 1,
                                       [UnitArc(F(1, 2), F(1))])
        assert margin < -0.1


@pytest.fixture(scope="module")
def fixture_stacks():
    """{(fixture, p): (region, offsets, depth, arrays)} from extend_continuous
    at depth 6 with 64 offsets: the B_1 extensions at p = 1, the two factors
    at p = 2, 3, each an (offsets, 2^(N+1)) array at the depth N the trees
    ran at, one level below the fixture's deepest good level (4 or 5)."""
    out = {}
    for name in CONTINUOUS_FIXTURES:
        w, dom = continuous_fixture(name)
        for p in (1.0, 2.0, 3.0):
            res = extend_continuous(w, p, 2.0, dom, depth=6, theta_count=64, family_depth=4)
            if p == 1:
                stacks = [[a.extension.weight for a in res.artifacts]]
            else:
                stacks = [[a.factorization.w1 for a in res.artifacts],
                          [a.factorization.w2 for a in res.artifacts]]
            thetas = [a.theta for a in res.artifacts]
            depth = res.artifacts[0].extension.weight.depth
            out[name, p] = dom, thetas, depth, [as_stack(trees)[2] for trees in stacks]
    return out


def _gap_points(region, thetas, depth):
    """The gap survey's region mesh, then a grid of radii with 1 - r = 2^-k
    down to below the leaf level (and r = 0, 1) against the angles 0,
    1 - 2^-52 and grid lines of every offset."""
    r_mesh, a_mesh = _pieces_mesh(region.pieces(), 10, 32, d_floor=0.5 ** (depth + 1))
    radii = [0.0, 1.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 12)]
    angles = [0.0, 1.0 - 2.0 ** -52]
    for theta in thetas:
        angles += [float((theta + F(j, 1 << depth)) % 1)
                   for j in (0, 1, 1 << (depth - 1), (1 << depth) - 1)]
    r, a = np.meshgrid(radii, angles, indexing="ij")
    return np.concatenate([r_mesh, r.ravel()]), np.concatenate([a_mesh, a.ravel()])


class TestGapSurveyLookup:
    """geo_mean_weight, which finds each point's level and nodes once for
    all trees and stacks, against the per-tree eval_polar loop, bitwise."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_fixture_stacks(self, fixture_stacks, name, p):
        region, thetas, depth, arrays = fixture_stacks[name, p]
        r, a = _gap_points(region, thetas, depth)
        for stacks in [[(values, 1.0)] for values in arrays] + [powered(arrays, p)]:
            got = geo_mean_weight(thetas, depth, stacks)(r, a)
            assert got.tobytes() == per_tree_geo_mean(thetas, depth, stacks)(r, a).tobytes()

    def test_one_tree_family(self):
        _, dom = continuous_fixture("chain_wrap")
        tree = random_log_walk(5, seed=41, sigma=0.9, theta=F(3, 7))
        thetas, depth, values = as_stack([tree])
        r, a = _gap_points(dom, thetas, depth)
        stacks = [(values, 1.0)]
        assert geo_mean_weight(thetas, depth, stacks)(r, a).tobytes() == \
            per_tree_geo_mean(thetas, depth, stacks)(r, a).tobytes()

    def test_point_shapes_and_repeats(self, fixture_stacks):
        """r and a broadcast against each other: a scalar angle, a 2-D r
        and points repeated many times over give the per-point values."""
        region, thetas, depth, arrays = fixture_stacks["pair_overlap", 2.0]
        r, a = _gap_points(region, thetas, depth)
        stacks = powered(arrays, 2.0)
        fn, want = geo_mean_weight(thetas, depth, stacks), per_tree_geo_mean(thetas, depth, stacks)
        grid = r[:64].reshape(8, 8)
        cases = [
            (r, np.float64(a[5])),  # one angle for every modulus
            (grid, a[:64].reshape(8, 8)),
            (grid, a[:8]),  # a row of angles against each row of moduli
            (np.tile(r[:40], 5), np.tile(a[:40], 5)),  # each point five times
            (np.full(30, r[7]), np.full(30, a[7])),  # one point only
        ]
        for rr, aa in cases:
            got = fn(rr, aa)
            full_r, full_a = (x.copy() for x in np.broadcast_arrays(rr, aa))
            assert got.shape == full_r.shape
            assert got.tobytes() == want(full_r, full_a).tobytes()


def _walk_stack(depth, thetas, seed):
    """(offsets, 2^(depth+1)) values of seeded random walks, one row per offset."""
    return np.stack([random_log_walk(depth, seed=seed + i, sigma=0.7).values
                     for i in range(len(thetas))])


class TestExactSurvey:
    """The survey's cell sums against brute_cell_survey, which looks every
    tree up per cell on Fraction breakpoints, and against fine meshes."""

    @pytest.mark.parametrize("depth", range(6))
    def test_matches_brute_cell_survey(self, depth):
        for count in (1, 3, 8):
            thetas = [F(2 * i + 1, 2 * count) for i in range(count)]
            a = _walk_stack(depth, thetas, 10 * depth)
            b = _walk_stack(depth, thetas, 10 * depth + 5)
            # arcs longer than the leaf cells, and shorter; index 0 is the circle
            for family_depth in (max(depth - 2, 0), depth + 1):
                family = default_arc_family(family_depth)
                family = family[::max(1, len(family) // 12)]
                assert family[0].length == 1 and family[-1].length == F(1, 1 << family_depth)
                for p in (1.0, 2.0):
                    stacks = [(a, 1.0), (b, 1.0 - p)]
                    got = _survey_geo_family(thetas, depth, stacks, p, family)
                    want = brute_cell_survey(thetas, depth, stacks, p, family)
                    case = (count, family_depth, p, got, want)
                    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0), case
                    assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12), case

    def test_float_arcs_match_brute_cell_survey(self):
        """Arcs built from floats put the common denominator past int64."""
        thetas = [F(2 * i + 1, 10) for i in range(5)]
        stacks = [(_walk_stack(4, thetas, 7), 1.0)]
        family = default_arc_family(2)[-2:] + random_arcs(2, 3, 6)
        assert max(arc.left.denominator for arc in family) > 1 << 40
        for p in (1.0, 3.0):
            got = _survey_geo_family(thetas, 4, stacks, p, family)
            want = brute_cell_survey(thetas, 4, stacks, p, family)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12)

    def test_fine_mesh_converges_to_the_cell_sum(self):
        """On chain_wrap at p = 1, a uniform 256 x 256 mesh of the argmax box
        lands within 1e-3 of the cell sum, closer than the 6 x 6 graded mesh
        the survey used before it summed cells."""
        w, dom = continuous_fixture("chain_wrap")
        res = extend_continuous(w, 1, 2.0, dom, depth=6, theta_count=64, family_depth=4)
        exact = res.constants["continuous_b1"]
        assert exact == pytest.approx(1.569671, abs=5e-7)
        thetas, depth, values = as_stack([a.extension.weight for a in res.artifacts])
        family = default_arc_family(4)
        per_arc = [_survey_geo_family(thetas, depth, [(values, 1.0)], 1, [arc])[0]
                   for arc in family]
        assert max(per_arc) == pytest.approx(exact, rel=1e-12)
        arc = family[int(np.argmax(per_arc))]
        fine, _ = continuous_b1_constant(res.weight, [arc], nr=256, na=256, grade=1)
        coarse, _ = continuous_b1_constant(res.weight, [arc])
        assert abs(fine - exact) < 1e-3
        assert abs(fine - exact) < abs(coarse - exact)


def _group_calls(monkeypatch) -> list:
    """(band, windows) of every later call of the survey's grouped core."""
    calls = []
    real = averaging._group_mean_log

    def spy(logv, th, k, L, span, origins, *rest):
        calls.append((k, len(origins)))
        return real(logv, th, k, L, span, origins, *rest)

    monkeypatch.setattr(averaging, "_group_mean_log", spy)
    return calls


class TestGroupedSurvey:
    """_survey_geo_family, which takes each band's angular windows in
    groups, against the window-by-window loop it replaced
    (helpers.window_survey_geo_family): the same pair of floats, bitwise."""

    @staticmethod
    def check(thetas, depth, stacks, p, family):
        assert _survey_geo_family(thetas, depth, stacks, p, family) == \
            window_survey_geo_family(thetas, depth, stacks, p, family)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_fixture_stacks(self, fixture_stacks, name, p):
        _, thetas, depth, arrays = fixture_stacks[name, p]
        self.check(thetas, depth, powered(arrays, p), p, default_arc_family(4))

    @pytest.mark.parametrize("cap", [averaging.SURVEY_LINES, 1])
    def test_python_int_path(self, monkeypatch, cap):
        """Float-born arcs and one more arc put the common denominator past
        2^61; with a cap of 1 each window is a group of its own."""
        monkeypatch.setattr(averaging, "SURVEY_LINES", cap)
        thetas = [F(2 * i + 1, 10) for i in range(5)]
        stacks = [(_walk_stack(4, thetas, 7), 1.0)]
        family = (default_arc_family(2)[-2:] + random_arcs(2, 3, 6)
                  + [UnitArc(F(1, 1 << 62), F(1, 3))])
        assert math.lcm(*(arc.left.denominator for arc in family)) >= 1 << 61
        for p in (1.0, 3.0):
            self.check(thetas, 4, stacks, p, family)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_windows_in_several_groups(self, monkeypatch, fixture_stacks, p):
        """With a cap of 48 finest lines, the 4 windows of 16 lines at
        chain_wrap's tree depth 5 (8 grid lines each for the 64 offsets'
        two shifts) fall in groups of 3 and 1."""
        _, thetas, depth, arrays = fixture_stacks["chain_wrap", p]
        assert depth == 5
        stacks = powered(arrays, p)
        monkeypatch.setattr(averaging, "SURVEY_LINES", 48)
        sizes = _group_calls(monkeypatch)
        self.check(thetas, depth, stacks, p, default_arc_family(4))
        for band in range(6):  # one call per group, band and stack
            assert [n for k, n in sizes if k == band] == [n for n in (3, 1) for _ in stacks]
        assert len(sizes) == 2 * 6 * len(stacks)


class TestSurveyGroupCounts:
    """Deterministic guards on the survey's work: calls of the grouped core,
    which repeat exactly where timings do not."""

    @pytest.mark.parametrize("p, want", [(1.0, 5), (2.0, 10)])
    def test_one_group_per_band_at_depth_6(self, monkeypatch, p, want):
        """At depth 6 with 64 offsets the trees of pair_overlap, whose
        deepest good level is 3, run at depth 4, and each band is one
        group: tree depth + 1 calls per stack, each over all 4 windows."""
        calls = _group_calls(monkeypatch)
        w, dom = continuous_fixture("pair_overlap")
        res = extend_continuous(w, p, 2.0, dom, depth=6, theta_count=64, family_depth=4)
        assert res.artifacts[0].extension.weight.depth == 4
        assert len(calls) == want
        assert {n for _, n in calls} == {4}

    def test_deep_bands_take_several_groups(self, monkeypatch):
        """At depth 10 with the pipeline's 255 offsets, the 32 windows hold
        8,160 finest lines each, so the cap splits every band into groups."""
        depth, count = 10, 255
        thetas = [F(2 * i + 1, 2 * count) for i in range(count)]
        values = np.exp(np.random.default_rng(3).normal(size=(count, 2 << depth)))
        calls = _group_calls(monkeypatch)
        _survey_geo_family(thetas, depth, [(values, 1.0)], 1.0, default_arc_family(3))
        for band in range(depth + 1):
            groups = [n for k, n in calls if k == band]
            assert len(groups) > 1 and sum(groups) == 32
            assert max(groups) * 8160 <= averaging.SURVEY_LINES


class TestSurveySetup:
    """The integer set-up of _survey_geo_family against the Fraction one it
    replaced (helpers.fraction_survey_geo_family): the same pair of floats."""

    @staticmethod
    def check(thetas, depth, stacks, family):
        for p in (1.0, 2.0):
            assert _survey_geo_family(thetas, depth, stacks, p, family) == \
                fraction_survey_geo_family(thetas, depth, stacks, p, family)

    def test_offsets_sharing_a_shift(self):
        depth = 4
        thetas = [F(1, 64), F(1, 64) + F(1, 16), F(1, 64) + F(5, 16), F(3, 64), F(3, 64) + F(1, 2)]
        assert len({th % F(1, 1 << depth) for th in thetas}) == 2
        stacks = [(_walk_stack(depth, thetas, 3), 1.0), (_walk_stack(depth, thetas, 9), -1.0)]
        self.check(thetas, depth, stacks, default_arc_family(3))

    def test_random_families_with_non_dyadic_denominators(self):
        rng = np.random.default_rng(17)
        depth = 5
        thetas = [F(2 * i + 1, 14) for i in range(7)]
        for _ in range(3):
            family = [UnitArc(F(int(rng.integers(0, den)), den), F(1, int(rng.integers(1, 12))))
                      for den in rng.integers(3, 40, 12).tolist()]
            assert any(d & (d - 1) for d in (arc.left.denominator for arc in family))
            self.check(thetas, depth, [(_walk_stack(depth, thetas, 20), 1.0)], family)
        # float-born arcs: dyadic, with denominators near 2^53
        self.check(thetas, depth, [(_walk_stack(depth, thetas, 21), 1.0)],
                   random_arcs(depth, 5, 8))

    def test_python_int_path(self):
        depth = 3
        thetas = [F(i, 15) for i in range(5)]
        family = default_arc_family(2)[::3] + [UnitArc(F(1, 1 << 62), F(1, 3))]
        assert math.lcm(*(arc.left.denominator for arc in family)) >= 1 << 61
        self.check(thetas, depth, [(_walk_stack(depth, thetas, 30), 1.0)], family)


class TestContinuousConstants:
    def test_default_family_is_built_once_per_depth(self):
        """Every call returns a fresh list of the same arc objects."""
        first, again = default_arc_family(3), default_arc_family(3)
        assert first is not again and all(x is y for x, y in zip(first, again))
        first.append(UnitArc(F(1, 2), F(1, 3)))
        assert len(default_arc_family(3)) == len(again) == 4 * 16
        assert again == [UnitArc(F(j, 16), F(1, 1 << k)) for k in range(4) for j in range(16)]

    def test_constant_weight_gives_one(self):
        w = lambda r, a: np.full_like(r, 3.0)
        family = default_arc_family(4)
        bp, _ = continuous_bp_constant(w, 2.0, family)
        b1, _ = continuous_b1_constant(w, family)
        assert bp == pytest.approx(1.0, abs=1e-12)
        assert b1 == pytest.approx(1.0, abs=1e-12)

    def test_radial_power_closed_form(self):
        """At p = 2 every box product of (1-r^2)^alpha is 1/(1-alpha^2).

        The radial integral has an elementary antiderivative, and the arc
        length cancels between the two averages.
        """
        for alpha in (0.5, -0.5):
            w = lambda r, a, al=alpha: (1 - r ** 2) ** al
            family = default_arc_family(5)
            bp, rows = continuous_bp_constant(w, 2.0, family, nr=128, na=2)
            expect = 1.0 / (1.0 - alpha ** 2)
            assert bp == pytest.approx(expect, rel=1e-3)
            vals = [v for _, v in rows]
            assert min(vals) == pytest.approx(expect, rel=1e-3)

    def test_radial_integral_against_scipy(self):
        from scipy.integrate import quad

        alpha = -0.5
        ell = 1 / 16
        got = quad(lambda r: (1 - r * r) ** alpha * 2 * r, 1 - ell, 1)[0]
        closed = (1 - (1 - ell) ** 2) ** (alpha + 1) / (alpha + 1)
        assert got == pytest.approx(closed, rel=1e-9)

    def test_alpha_minus_one_blows_up_under_refinement(self):
        """The p = 2 products of radial powers are scale-invariant, so the
        endpoint divergence shows as instability in the quadrature depth:
        refining the mesh keeps growing the constant for alpha <= -1 while
        integrable powers have already converged."""
        family = default_arc_family(3)
        bad = lambda r, a: 1.0 / np.maximum(1 - r ** 2, 1e-300)
        coarse, _ = continuous_bp_constant(bad, 2.0, family, nr=32, na=2)
        fine, _ = continuous_bp_constant(bad, 2.0, family, nr=1024, na=2)
        assert fine > 1.5 * coarse
        good = lambda r, a: (1 - r ** 2) ** -0.5
        coarse, _ = continuous_bp_constant(good, 2.0, family, nr=32, na=2)
        fine, _ = continuous_bp_constant(good, 2.0, family, nr=1024, na=2)
        assert fine == pytest.approx(coarse, rel=5e-3)

    def test_subfamily_is_a_lower_bound(self):
        w, _ = continuous_fixture("pair_overlap")
        family = default_arc_family(4)
        small, _ = continuous_bp_constant(w, 2.0, family[:40])
        full, _ = continuous_bp_constant(w, 2.0, family)
        assert small <= full


def disc_beta(z, w):
    """Hyperbolic distance of two (modulus, angle in turns) points."""
    return beta_hyperbolic(z[0] * np.exp(2j * np.pi * z[1]), w[0] * np.exp(2j * np.pi * w[1]))


def assert_same_beta_report(got, want):
    """Equal keys, equal integers and bitwise-equal floats."""
    assert got.keys() == want.keys()
    for key in ("max_ratio", "mean_ratio", "max_pointwise_ratio",
                "mean_beta_theta", "ratios"):
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key
    assert all(type(x) is float for x in got["mean_beta_theta"])
    assert got["max_beta_theta"] == want["max_beta_theta"]


class TestAvgBeta:
    def test_random_pairs_equal_fraction_oracle(self):
        rng = np.random.default_rng(47)
        pairs = []
        for _ in range(1000):
            r1, r2 = rng.uniform(0.05, 0.999, 2)
            a1, a2 = rng.uniform(0, 1, 2)
            pairs.append(((r1, a1), (r2, a2)))
        assert_same_beta_report(avg_beta_check(pairs), fraction_avg_beta_check(pairs))

    @pytest.mark.parametrize("pair", [
        ((0.7, 0.3), (0.9, 0.3)),  # equal angles
        ((1 - 3 / 128, 0.25), (1 - 3 / 1024, 1.25)),  # equal mod 1
        ((0.5, F(1, 3)), (0.75, 0)),  # Fraction and int angles
        ((F(3, 4), F(2, 5)), (0.9, 1)),
        ((0.8, F(1, 7)), (F(63, 64), -F(2, 7))),
        ((0.5, 0.1), (0.75, 0.6)),  # 1 - r a power of two
        ((1 - 2 ** -20, 0.3), (1 - 2 ** -21, 0.3 + 2 ** -25)),
        ((1 - 2 ** -30, F(1, 2)), (0.0, 0.0)),
    ])
    def test_edge_pairs_equal_fraction_oracle(self, pair):
        assert_same_beta_report(avg_beta_check([pair]), fraction_avg_beta_check([pair]))

    def test_power_of_two_moduli_equal_fraction_oracle(self):
        rng = np.random.default_rng(53)
        pairs = [((1 - 2.0 ** -int(k1), a1), (1 - 2.0 ** -int(k2), a2))
                 for (k1, k2), (a1, a2) in zip(rng.integers(1, 40, (200, 2)),
                                               rng.uniform(0, 1, (200, 2)))]
        assert_same_beta_report(avg_beta_check(pairs), fraction_avg_beta_check(pairs))

    def test_equal_points_give_zero(self):
        rep = avg_beta_check([((0.5, 0.25), (0.5, 0.25))])
        assert rep["max_ratio"] == 0.0

    def test_exact_mean_for_commensurate_pair(self):
        """Same-level pair at angular distance 2^-6: the mean over offsets
        of the dyadic distance is sum over levels of min(1, d 2^m), here
        31/32 exactly because every breakpoint lies on the offset grid."""
        z = (1 - 3 / 128, 1 / 4)
        w = (1 - 3 / 128, 1 / 4 + 1 / 64)
        rep = avg_beta_check([(z, w)])
        assert rep["mean_beta_theta"][0] == pytest.approx(31 / 32, abs=1e-12)
        assert mean_common_boxes(z, w) == pytest.approx(161 / 32, abs=1e-12)

    def test_straddling_pair_spikes_pointwise_but_not_on_average(self):
        eps = 1 / 4096
        z = (1 - 3 / 4096, 0.5 - eps)
        w = (1 - 3 / 4096, 0.5 + eps)
        rep = avg_beta_check([(z, w)])
        assert rep["max_beta_theta"][0] >= 9
        assert rep["mean_beta_theta"][0] < 4.0

    def test_narrow_pair_is_exact(self):
        """Points 2^-15 apart at level 16: a 4096-offset sample never puts
        a level-1 line between them, but the exact largest beta_theta is the
        deeper level and the mean subtracts every containment chance."""
        z = (1 - 2 ** -16, 0.3)
        w = (1 - 2 ** -16, 0.3 + 2 ** -15)
        rep = avg_beta_check([(z, w)])
        chances = sum(max(F(0), 1 - F(1 << k, 1 << 15)) for k in range(1, 17))
        assert rep["max_beta_theta"] == [16]
        assert rep["mean_beta_theta"] == [float(16 - chances)]
        # they share a cell down to level 14 at best
        assert rep["max_pointwise_ratio"] == disc_beta(z, w) / 3.0

    def test_equal_angles_on_two_levels(self):
        """Same angle, levels 5 and 8: every offset puts both points in one
        cell down to level 5, so mean, largest and smallest are all 3."""
        z = (1 - 3 / 128, 0.3)
        w = (1 - 3 / 1024, 0.3)
        rep = avg_beta_check([(z, w)])
        assert rep["mean_beta_theta"] == [3.0]
        assert rep["max_beta_theta"] == [3]
        assert rep["max_pointwise_ratio"] == disc_beta(z, w) / 4.0

    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_sample_gap_within_the_grid_bound(self, bits):
        """The exact mean against the 2^bits-offset sample of the oracle: at
        level k the offsets that keep both points in one cell form 2^k
        equal intervals; 2^bits midpoint samples miss at most one sample per
        interval, 2^(k - bits) of the chance in all (and never more than 1)."""
        rng = np.random.default_rng(29)
        for _ in range(400):
            r1, r2 = rng.uniform(0.05, 0.999, 2)
            a1, a2 = rng.uniform(0, 1, 2)
            z, w = (r1, a1), (r2, a2)
            levels = sorted((containing_level(1 - F(r1)), containing_level(1 - F(r2))))
            bound = sum(min(1.0, 2.0 ** (k - bits)) for k in range(1, levels[0] + 1))
            rep = avg_beta_check([(z, w)])
            sampled = levels[1] + 1 - mean_common_boxes(z, w, bits)
            assert abs(sampled - rep["mean_beta_theta"][0]) <= bound + 1e-12

    def test_envelopes_on_random_pairs(self):
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(1000):
            r1, r2 = rng.uniform(0.05, 0.999, 2)
            a1, a2 = rng.uniform(0, 1, 2)
            pairs.append(((r1, a1), (r2, a2)))
        rep = avg_beta_check(pairs)
        assert rep["max_ratio"] <= 50.0
        assert rep["max_pointwise_ratio"] <= 3.0


class TestExtendContinuous:
    def test_constant_weight_never_exceeds_the_constant(self):
        """The geometric average can dip below a constant weight off the
        good cells but must never exceed it; the one-sided gap is the
        honest outcome here (the dip happens wherever some offset's cell
        misses the goodness cut)."""
        _, dom = continuous_fixture("pair_overlap")
        w = lambda r, a: np.full_like(r, 2.0)
        res = extend_continuous(w, 1, 2.0, dom, depth=6, theta_count=8,
                                family_depth=3)
        r, a = np.array([0.8, 0.9, 0.95]), np.array([0.33, 0.4, 0.8])
        assert np.all(res.weight(r, a) <= 2.0 + 1e-9)
        assert res.constants["log_gap_sup"] < math.log(18.0)

    def test_pipeline_b1_on_fixture(self):
        w, dom = continuous_fixture("pair_overlap")
        res = extend_continuous(w, 1, 2.0, dom, depth=7, theta_count=8,
                                family_depth=4)
        assert res.ok
        assert np.isfinite(res.constants["continuous_b1"])
        assert res.constants["continuous_b1"] >= 1.0 - 1e-9
        assert res.constants["log_minkowski_margin"] <= 1e-9
        assert res.constants["log_gap_sup"] < 5.0
        assert len(res.theta_csv_rows()) > 0

    def test_pipeline_bp_on_fixture(self):
        w, dom = continuous_fixture("wide_plus_thin")
        res = extend_continuous(w, 2.0, 2.0, dom, depth=7, theta_count=8,
                                family_depth=4)
        assert res.ok
        assert res.constants["continuous_bp"] >= 1.0 - 1e-3
        assert np.isfinite(res.constants["continuous_bp"])
        assert res.constants["log_minkowski_margin"] <= 1e-9
        r, a = np.array([0.5, 0.9]), np.array([0.1, 0.6])
        assert np.all(res.weight(r, a) > 0)

    @pytest.mark.parametrize("theta_count", [1, 8])
    def test_stacked_offsets_match_per_offset_loop(self, theta_count):
        """Every route: B_1 (p = 1), B_p (p = 2) and the dual (p = 3)."""
        w, dom = continuous_fixture("pair_overlap")
        for p in (1.0, 2.0, 3.0):
            res = extend_continuous(w, p, 2.0, dom, depth=5, theta_count=theta_count,
                                    family_depth=3)
            depth = res.artifacts[0].extension.weight.depth
            ref = per_offset_pipeline(w, p, 2.0, dom, depth=depth, theta_count=theta_count)
            assert len(res.artifacts) == len(ref) == theta_count
            for art, (theta, wt, om, ext, fact) in zip(res.artifacts, ref):
                assert art.theta == theta
                assert np.array_equal(art.restriction.values, wt.values)
                assert np.array_equal(art.domain.mask, om.mask)
                assert np.array_equal(art.extension.weight.values, ext.weight.values)
                assert [c.as_dict() for c in art.extension.certificates] == \
                       [c.as_dict() for c in ext.certificates]
                assert sorted(art.extension.diagnostics.items()) == \
                       sorted(ext.diagnostics.items())
                if p == 1:
                    assert art.factorization is None and fact is None
                    continue
                assert np.array_equal(art.factorization.w1.values, fact.w1.values)
                assert np.array_equal(art.factorization.w2.values, fact.w2.values)
                assert [c.as_dict() for c in art.factorization.certificates] == \
                       [c.as_dict() for c in fact.certificates]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_constants_run_once_per_stack(self, monkeypatch, p):
        """The pipeline takes every constant and extension once for the
        whole stack of offsets: the call counts do not grow with them."""
        names = ["_c_values", "_b1_values", "_bp_values", "_log_pair_sup", "c_const",
                 "b1_constant", "bp_constant", "osc_constants", "extend_b1", "extend_bp",
                 "rdf_factor", "factor_bho_full", "s_norm_bound"]
        w, dom = continuous_fixture("pair_overlap")

        def counts(theta_count):
            calls = dict.fromkeys(names, 0)

            def spy(name, real):
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return counted

            with monkeypatch.context() as m:
                for module in (weights, factorization, extension, averaging):
                    for name in names:
                        if hasattr(module, name):
                            m.setattr(module, name, spy(name, getattr(module, name)))
                extend_continuous(w, p, 2.0, dom, depth=5, theta_count=theta_count,
                                  family_depth=3)
            return calls

        few = counts(4)
        assert few == counts(16)
        assert few["_c_values"] > 0 and few["_log_pair_sup"] > 0

    def test_pipeline_restricts_without_per_node_clips(self, monkeypatch):
        """No per-node clip or per-piece quadrature in the pipeline, and each
        offset's restriction is bitwise the per-piece reference."""
        w, dom = continuous_fixture("chain_wrap")
        calls = []
        with monkeypatch.context() as m:
            m.setattr(ContinuousDomain, "clip_to_top",
                      lambda *a, **k: calls.append("clip_to_top"))
            m.setattr(averaging, "rect_quadrature",
                      lambda *a, **k: calls.append("rect_quadrature"))
            res = extend_continuous(w, 2.0, 2.0, dom, depth=5, theta_count=8,
                                    family_depth=3)
        assert calls == []
        for art in res.artifacts:
            assert np.array_equal(art.restriction.values, brute_restriction_values(
                w, art.theta, dom, art.extension.weight.depth))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_survey_and_weight_read_the_pipeline_arrays(self, monkeypatch, p):
        """The survey and geo_mean_weight get the pipeline's own (offsets,
        2^(N+1)) arrays, which the artifacts' trees are views of: the
        extensions at p = 1, the factors w1 and w2 at p = 2."""
        seen = {}
        for name in ("_survey_geo_family", "geo_mean_weight"):
            def spy(thetas, depth, stacks, *rest, real=getattr(averaging, name), name=name):
                seen[name] = stacks
                return real(thetas, depth, stacks, *rest)
            monkeypatch.setattr(averaging, name, spy)
        w, dom = continuous_fixture("chain_wrap")
        res = extend_continuous(w, p, 2.0, dom, depth=5, theta_count=8, family_depth=3)
        if p == 1:
            families = [[a.extension.weight for a in res.artifacts]]
        else:
            families = [[a.factorization.w1 for a in res.artifacts],
                        [a.factorization.w2 for a in res.artifacts]]
        assert seen.keys() == {"_survey_geo_family", "geo_mean_weight"}
        for stacks in seen.values():
            assert [power for _, power in stacks] == [1.0, 1.0 - p][:len(families)]
            for (values, _), trees in zip(stacks, families):
                assert values.shape == (8, 64)
                assert all(np.shares_memory(values, t.values) for t in trees)
                assert np.array_equal(values, as_stack(trees)[2])

    def test_per_theta_failure_names_the_offset(self):
        _, dom = continuous_fixture("pair_overlap")
        bad = lambda r, a: np.full_like(r, np.inf)
        with pytest.raises(ValueError, match="offset 1/4 failed"):
            extend_continuous(bad, 1, 2.0, dom, depth=6, theta_count=2)


@lru_cache(maxsize=None)
def _truncated_and_full(name, p, depth):
    """(extend_continuous, full_depth_pipeline) on a fixture with 64
    offsets and family depth 4."""
    w, dom = continuous_fixture(name)
    return (extend_continuous(w, p, 2.0, dom, depth=depth, theta_count=64, family_depth=4),
            full_depth_pipeline(w, p, 2.0, dom, depth, 64, 4))


def _deepest_good_level(res) -> int:
    masks = np.array([a.domain.mask for a in res.artifacts])
    return int(np.flatnonzero(masks.any(axis=0))[-1]).bit_length() - 1


def _certificates(art) -> list:
    """The extension's certificates, then the factorization's for p > 1."""
    facts = art.factorization.certificates if art.factorization is not None else []
    return list(art.extension.certificates) + list(facts)


class TestTreeDepth:
    """extend_continuous runs its trees at min(depth, L + 1), L the deepest
    good level of any offset, against helpers.full_depth_pipeline, which
    runs them at the configured depth."""

    @pytest.mark.parametrize("depth", [6, 8])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_constants_and_certificates_match_full_depth(self, name, p, depth):
        """Every constant and every per-offset certificate's measured and
        bound agree to 1e-14 relative; the log-Minkowski margin, a
        difference near 0, and the reconstruction error, itself a rounding
        error, to 1e-14 absolute."""
        res, full = _truncated_and_full(name, p, depth)
        constants = dict(res.constants)
        tree_depth = min(depth, _deepest_good_level(full) + 1)
        assert tree_depth < depth
        assert constants.pop("tree_depth") == tree_depth
        assert res.artifacts[0].extension.weight.depth == tree_depth
        assert constants.keys() == full.constants.keys()
        for key, want in full.constants.items():
            if key == "log_minkowski_margin":
                assert constants[key] == pytest.approx(want, rel=0, abs=1e-14)
            else:
                assert constants[key] == pytest.approx(want, rel=1e-14, abs=0)
        for art, ref in zip(res.artifacts, full.artifacts):
            assert art.theta == ref.theta
            for got, want in zip(_certificates(art), _certificates(ref), strict=True):
                assert got.quantity == want.quantity
                assert got.bound == pytest.approx(want.bound, rel=1e-14, abs=0)
                if got.quantity == "reconstruction_relative_error":
                    assert got.measured == pytest.approx(want.measured, rel=0, abs=1e-14)
                else:
                    assert got.measured == pytest.approx(want.measured, rel=1e-14, abs=0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_full_depth_trees_are_constant_below_the_good_levels(self, name, p):
        """At depth 8 every node below level L + 1 of each offset's
        extension, and of both of its factors, equals its level-(L + 1)
        ancestor to 1e-14 relative."""
        _, full = _truncated_and_full(name, p, 8)
        top = _deepest_good_level(full) + 1
        ids = np.arange(2 << top, 1 << 9)
        ancestors = ids >> (np.log2(ids).astype(np.int64) - top)
        trees = [a.extension.weight for a in full.artifacts]
        if p > 1:
            trees += [a.factorization.w1 for a in full.artifacts]
            trees += [a.factorization.w2 for a in full.artifacts]
        for tree in trees:
            np.testing.assert_allclose(tree.values[ids], tree.values[ancestors], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
    def test_shallow_depth_is_the_full_depth_run(self, name, p):
        """At depth 4, at most L + 1 on every fixture (pair_overlap's L is
        3), the trees run at the configured depth: bitwise the full run."""
        res, full = _truncated_and_full(name, p, 4)
        constants = dict(res.constants)
        assert constants.pop("tree_depth") == 4 <= _deepest_good_level(full) + 1
        assert constants == full.constants
        for art, ref in zip(res.artifacts, full.artifacts):
            assert np.array_equal(art.restriction.values, ref.restriction.values)
            assert np.array_equal(art.domain.mask, ref.domain.mask)
            assert np.array_equal(art.extension.weight.values, ref.extension.weight.values)
            assert sorted(art.extension.diagnostics.items()) == \
                sorted(ref.extension.diagnostics.items())
            if p > 1:
                assert np.array_equal(art.factorization.w1.values, ref.factorization.w1.values)
                assert np.array_equal(art.factorization.w2.values, ref.factorization.w2.values)
            assert [c.as_dict() for c in _certificates(art)] == \
                [c.as_dict() for c in _certificates(ref)]
        region = continuous_fixture(name)[1]
        r, a = _gap_points(region, [art.theta for art in res.artifacts], 4)
        assert res.weight(r, a).tobytes() == full.weight(r, a).tobytes()
