"""Offset averaging: exact region algebra, good nodes, continuous pipelines."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discweights.averaging import (
    ContinuousDomain,
    SampledWeight,
    avg_beta_check,
    continuous_b1_constant,
    continuous_bp_constant,
    default_arc_family,
    dyadic_restriction,
    extend_continuous,
    five_probes,
    geo_mean_weight,
    good_nodes,
    mean_common_boxes,
    rect_quadrature,
    restriction_certificate,
    theta_measure_spectrum,
)
from discweights.averaging import _survey_geo_family
from discweights.fixtures import CONTINUOUS_FIXTURES, continuous_fixture, sqrt_weight
from discweights.geometry import (
    GridNode,
    UnitArc,
    arc_contains_angle,
    arc_contains_arc,
    area_top,
    containing_level,
    mod1,
)
from discweights.weights import TreeWeight, osc_constants, random_log_walk


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


class TestRegionAlgebra:
    def test_single_generator_matches_top_area(self):
        for ell in [F(1, 5), F(3, 7), F(1), F(2, 3), F(1, 64)]:
            dom = ContinuousDomain([UnitArc(F(1, 3), ell)])
            assert dom.area() == area_top(ell)

    def test_union_inclusion_exclusion_frozen(self):
        dom = ContinuousDomain([UnitArc(F(1, 8), F(1, 4)), UnitArc(F(1, 4), F(1, 4))])
        assert dom.area() == F(39, 512)

    def test_pieces_are_disjoint_and_tile(self):
        _, dom = continuous_fixture("chain_wrap")
        pieces = dom.pieces()
        assert sum((p.area() for p in pieces), F(0)) == dom.area()
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
        assert dom.contains(d, ang) == in_pieces

    def test_monte_carlo_union_area(self):
        _, dom = continuous_fixture("pair_overlap")
        rng = np.random.default_rng(5)
        n = 200_000
        r = np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(size=n)
        hits = sum(
            dom.contains(F(1) - F(float(ri)), F(float(ai)))
            for ri, ai in zip(r, ang)
        )
        p = float(dom.area())
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
        w = SampledWeight(lambda r, a: np.full_like(r, 2.5))
        wt, om = dyadic_restriction(w, F(1, 7), dom, 7)
        ids = np.flatnonzero(om.mask)
        assert len(ids) > 0
        assert np.allclose(wt.values[ids], 2.5, rtol=1e-12)
        assert np.all(wt.values[~om.mask] == 1.0)

    def test_quadrature_against_radial_antiderivative(self):
        """One minus r integrates in closed form over any polar rectangle."""
        _, dom = continuous_fixture("chain_wrap")
        w = SampledWeight(lambda r, a: 1.0 - r)
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

    def test_non_finite_samples_raise(self):
        _, dom = continuous_fixture("pair_overlap")
        bad = SampledWeight(lambda r, a: np.full_like(r, np.nan))
        with pytest.raises(ValueError):
            dyadic_restriction(bad, F(1, 7), dom, 6)


class TestGeoAverage:
    def test_identical_trees(self):
        t = random_log_walk(5, seed=3)
        geo = geo_mean_weight([t, t, t])
        r = np.array([0.3, 0.9, 0.97])
        a = np.array([0.1, 0.5, 0.9])
        assert np.allclose(geo(r, a), t.eval_polar(r, a))

    def test_two_point_family_geometric_mean(self):
        c, four_c = TreeWeight.constant(0.7, 4), TreeWeight.constant(2.8, 4)
        geo = geo_mean_weight([c, four_c])
        out = geo(np.array([0.5]), np.array([0.25]))
        assert out[0] == pytest.approx(1.4, rel=1e-12)

    def test_log_minkowski_margin_random_families(self):
        family = default_arc_family(3)
        for seed in range(6):
            trees = [random_log_walk(5, seed=100 + seed * 8 + i, sigma=0.8)
                     for i in range(8)]
            _, margin = _survey_geo_family([(trees, 1.0)], 1, family)
            assert margin <= 1e-9

    def test_log_minkowski_strict_on_anticorrelated_pair(self):
        up = TreeWeight.from_node_values(0, 1, [((1, 0), 9.0), ((1, 1), 1.0)])
        down = TreeWeight.from_node_values(0, 1, [((1, 0), 1.0), ((1, 1), 9.0)])
        _, margin = _survey_geo_family([([up, down], 1.0)], 1,
                                       [UnitArc(F(1, 2), F(1))])
        assert margin < -0.1


class TestContinuousConstants:
    def test_constant_weight_gives_one(self):
        w = SampledWeight(lambda r, a: np.full_like(r, 3.0))
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
            w = SampledWeight(lambda r, a, al=alpha: (1 - r ** 2) ** al)
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
        bad = SampledWeight(lambda r, a: 1.0 / np.maximum(1 - r ** 2, 1e-300))
        coarse, _ = continuous_bp_constant(bad, 2.0, family, nr=32, na=2)
        fine, _ = continuous_bp_constant(bad, 2.0, family, nr=1024, na=2)
        assert fine > 1.5 * coarse
        good = SampledWeight(lambda r, a: (1 - r ** 2) ** -0.5)
        coarse, _ = continuous_bp_constant(good, 2.0, family, nr=32, na=2)
        fine, _ = continuous_bp_constant(good, 2.0, family, nr=1024, na=2)
        assert fine == pytest.approx(coarse, rel=5e-3)

    def test_subfamily_is_a_lower_bound(self):
        w, _ = continuous_fixture("pair_overlap")
        family = default_arc_family(4)
        small, _ = continuous_bp_constant(w, 2.0, family[:40])
        full, _ = continuous_bp_constant(w, 2.0, family)
        assert small <= full


class TestAvgBeta:
    def test_equal_points_give_zero(self):
        rep = avg_beta_check([((0.5, 0.25), (0.5, 0.25))], resolution_bits=8)
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

    def test_envelopes_on_random_pairs(self):
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(1000):
            r1, r2 = rng.uniform(0.05, 0.999, 2)
            a1, a2 = rng.uniform(0, 1, 2)
            pairs.append(((r1, a1), (r2, a2)))
        rep = avg_beta_check(pairs, resolution_bits=12)
        assert rep["max_ratio"] <= 50.0
        assert rep["max_pointwise_ratio"] <= 3.0


class TestExtendContinuous:
    def test_constant_weight_never_exceeds_the_constant(self):
        """The geometric average can dip below a constant weight off the
        good cells but must never exceed it; the one-sided gap is the
        honest outcome here (the dip happens wherever some offset's cell
        misses the goodness cut)."""
        _, dom = continuous_fixture("pair_overlap")
        w = SampledWeight(lambda r, a: np.full_like(r, 2.0))
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

    def test_per_theta_failure_names_the_offset(self):
        _, dom = continuous_fixture("pair_overlap")
        bad = SampledWeight(lambda r, a: np.full_like(r, np.inf))
        with pytest.raises(ValueError, match="offset"):
            extend_continuous(bad, 1, 2.0, dom, depth=6, theta_count=2)
