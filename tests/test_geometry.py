"""Geometry layer: areas, metrics, cell assignment, arc predicates.

Expected area values are frozen from two independent computations: a Monte
Carlo membership count over uniform points of the disc, and numerical
integration of the radial profile.  Both are reproduced here as oracles.
"""

from fractions import Fraction as F

import math
import numpy as np
import pytest
from scipy.integrate import quad

from discweights.geometry import (
    GridNode,
    UnitArc,
    area_carleson,
    area_top,
    beta_hyperbolic,
    containing_level,
    mod1,
    rho_pseudo,
)
from discweights.weights import values_at

from helpers import arc_contains_angle, arc_contains_arc, beta_dyadic_nodes, lca_level


def cell_ids(theta, depth, modulus, angle):
    """Node ids of the cells of a depth-N tree with offset theta holding the
    points, through the lab's batched lookup (a tree whose values are its
    own node ids)."""
    ids = np.arange(1 << (depth + 1), dtype=np.float64)
    got = values_at(ids[None, :], [theta], depth, np.array(modulus), np.array(angle))
    return got[0].astype(np.int64).tolist()


def mc_area(contains, n=2_000_000, seed=7):
    """Monte Carlo area of a region given by a membership predicate.

    Points are drawn uniformly from the disc (rejection from the square);
    `contains` receives arrays (modulus, angle in turns).
    """
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform(-1, 1, size=(2 * n, 2))
        cand = cand[(cand ** 2).sum(axis=1) < 1]
        pts = np.vstack([pts, cand])
    pts = pts[:n]
    mod = np.hypot(pts[:, 0], pts[:, 1])
    ang = np.arctan2(pts[:, 1], pts[:, 0]) / (2 * np.pi) % 1.0
    return contains(mod, ang).mean()


class TestAreas:
    def test_carleson_box_frozen_values(self):
        # exact rational arithmetic
        assert area_carleson(F(1, 2)) == F(3, 8)
        assert area_carleson(F(1, 4)) == F(7, 64)
        assert area_carleson(F(1)) == 1
        # float path agrees
        assert area_carleson(0.5) == pytest.approx(0.375, abs=1e-15)

    def test_top_half_frozen_value(self):
        assert area_top(F(1, 2)) == F(5, 32)
        assert area_top(F(1, 2), rho=F(1)) == F(3, 8)

    def test_carleson_area_against_monte_carlo(self):
        for ell, expect in [(0.5, 0.375), (0.25, 7 / 64)]:
            def inside(mod, ang, ell=ell):
                on_arc = (ang > 0) & (ang <= ell)
                return on_arc & (1 - mod < ell)

            est = mc_area(inside)
            sigma = math.sqrt(expect * (1 - expect) / 2_000_000)
            assert abs(est - expect) < 5 * sigma

    def test_top_half_area_against_monte_carlo(self):
        # T(I) for ell=1/2: depth band (1/4, 1/2], i.e. radii [1/2, 3/4)
        est = mc_area(lambda m, a: (a > 0) & (a <= 0.5) & (1 - m > 0.25) & (1 - m <= 0.5))
        expect = 5 / 32
        sigma = math.sqrt(expect * (1 - expect) / 2_000_000)
        assert abs(est - expect) < 5 * sigma

    def test_area_against_radial_quadrature(self):
        # A = ell * integral of 2r dr over the radial band, integral done numerically
        for ell in (0.5, 0.25, 1 / 8, 1 / 64):
            val, _ = quad(lambda r: 2 * r, 1 - ell, 1)
            assert area_carleson(ell) == pytest.approx(ell * val, rel=1e-12)
            val, _ = quad(lambda r: 2 * r, 1 - ell, 1 - ell / 2)
            assert area_top(ell) == pytest.approx(ell * val, rel=1e-12)

    def test_top_to_box_ratio_window(self):
        # A(T(I))/A(S(I)) decreases from 1/2 (small arcs) to 1/4 (full circle)
        ratios = [area_top(F(1, 1 << k)) / area_carleson(F(1, 1 << k)) for k in range(0, 12)]
        assert all(F(1, 4) <= r <= F(1, 2) for r in ratios)
        assert ratios[0] == F(1, 4)
        assert ratios == sorted(ratios)  # monotone up toward 1/2

    def test_box_to_child_box_ratio_at_most_four(self):
        for k in range(0, 14):
            ell = F(1, 1 << k)
            ratio = area_carleson(ell) / area_carleson(ell / 2)
            assert 2 < ratio <= 4

    def test_telescoping_partition_is_exact(self):
        # top halves above depth N plus the depth-N boxes tile the disc
        for n in (1, 3, 6):
            total = sum((1 << k) * area_top(F(1, 1 << k)) for k in range(n))
            total += (1 << n) * area_carleson(F(1, 1 << n))
            assert total == 1

    def test_three_quarter_top_is_top_plus_children_tops(self):
        ell = F(1, 8)
        assert area_top(ell, rho=F(3, 4)) == area_top(ell) + 2 * area_top(ell / 2)


class TestMetrics:
    def test_pseudohyperbolic_example(self):
        assert rho_pseudo(0.5 + 0j, -0.5 + 0j) == pytest.approx(0.8, abs=1e-15)

    def test_beta_at_half(self):
        # rho = 1/2 gives (1/2) log(5/3)
        z, w = 0j, 0.5 + 0j
        assert rho_pseudo(z, w) == 0.5
        assert beta_hyperbolic(z, w) == pytest.approx(0.5 * math.log(5 / 3), rel=1e-14)

    def test_one_minus_rho_squared_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = rng.uniform(0, 0.999, 2)
            t = rng.uniform(0, 1, 2)
            z = r[0] * np.exp(2j * np.pi * t[0])
            w = r[1] * np.exp(2j * np.pi * t[1])
            lhs = 1 - rho_pseudo(z, w) ** 2
            rhs = (1 - abs(z) ** 2) * (1 - abs(w) ** 2) / abs(1 - w.conjugate() * z) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCellAssignment:
    def test_containing_level_boundaries(self):
        assert containing_level(F(1)) == 0
        assert containing_level(F(1, 2)) == 1
        assert containing_level(F(1, 2) + F(1, 1 << 40)) == 0
        assert containing_level(F(1, 1 << 20)) == 20
        assert containing_level(F(1, 1 << 20) + F(1, 1 << 50)) == 19

    def test_containing_level_huge_denominators(self):
        tiny = F(1, 1 << 200)
        assert containing_level(F(1, 2) + tiny) == 0
        assert containing_level(F(1, 2) - tiny) == 1
        assert containing_level(F(1, 1 << 300)) == 300
        assert containing_level(F(1, 1 << 300) + F(1, 1 << 900)) == 299
        assert containing_level(F(1, 1 << 300) - F(1, 1 << 900)) == 300
        # non-dyadic: 2^-301 < 1/(3 * 2^299) <= 2^-300
        assert containing_level(F(1, 3 << 299)) == 300
        assert containing_level(F(2, 3)) == 0 and containing_level(F(1, 3)) == 1

    def test_containing_level_floats_and_ints(self):
        assert containing_level(1) == 0
        assert containing_level(0.5) == 1
        assert containing_level(0.3) == 1
        assert containing_level(2.0 ** -1074) == 1074  # smallest subnormal
        assert containing_level(0.5 + 2.0 ** -53) == 0
        assert containing_level(1 - 0.999) == containing_level(1 - F(0.999)) == 9
        for d in np.random.default_rng(59).uniform(0, 1, 200):
            k = containing_level(d)
            assert F(1, 1 << (k + 1)) < F(d) <= F(1, 1 << k)

    @pytest.mark.parametrize("d", [F(0), F(-1, 4), F(5, 4), 0.0, -0.5, 1.0000001, 2])
    def test_containing_level_outside_unit_interval_raises(self, d):
        with pytest.raises(ValueError, match="need 0 < d <= 1"):
            containing_level(d)

    def test_node_point_round_trip(self):
        # a node's distinguished point (modulus 1 - |I|, central angle)
        # lands back in that node's cell
        nodes = [(level, index) for level in range(10)
                 for index in sorted({0, (1 << level) - 1, (1 << level) // 2})]
        modulus = [1 - 2.0 ** -level for level, _ in nodes]
        angle = [(index + 0.5) / (1 << level) for level, index in nodes]
        assert cell_ids(F(0), 10, modulus, angle) == [(1 << k) + j for k, j in nodes]

    def test_origin_maps_to_root(self):
        assert cell_ids(F(1, 3), 4, [0.0], [0.7]) == [1]

    def test_half_open_boundary_membership(self):
        # angle exactly on a grid endpoint belongs to the arc ending there:
        # depth 0.6 is level 0 regardless; depth 1/4 is level 2, with the
        # angle on the endpoint 1/2 and on theta itself (the last arc)
        assert cell_ids(F(0), 4, [0.4, 0.75, 0.75], [0.5, 0.5, 0.0]) == [1, 4 + 1, 4 + 3]


class TestBetaDyadic:
    def test_same_cell_and_siblings(self):
        a = GridNode(F(0), 5, 12)
        assert beta_dyadic_nodes(a, a) == 0
        sib = GridNode(F(0), 5, 13)
        assert beta_dyadic_nodes(a, sib) == 1
        cousin = GridNode(F(0), 5, 14)  # 12,13 vs 14,15 split at level 3
        assert beta_dyadic_nodes(a, cousin) == 2

    def test_parent_child(self):
        a = GridNode(F(0), 4, 7)
        assert beta_dyadic_nodes(a, GridNode(F(0), 3, 3)) == 1
        assert beta_dyadic_nodes(a, GridNode(F(0), 0, 0)) == 4

    def test_points_straddling_offset(self):
        # points just clockwise/counterclockwise of theta at depth 2^-k sit in
        # the first and last level-k arcs; the common predecessor is the root
        for k in (2, 5, 9):
            angles = [2.0 ** -(k + 2), 1 - 2.0 ** -(k + 2)]
            assert cell_ids(F(0), 10, [1 - 2.0 ** -k] * 2, angles) == [1 << k, (2 << k) - 1]
            first, last = GridNode(F(0), k, 0), GridNode(F(0), k, (1 << k) - 1)
            assert beta_dyadic_nodes(first, last) == k

    def test_lca_level_via_prefixes(self):
        def parent(n):
            return GridNode(n.theta, n.level - 1, n.index >> 1)

        rng = np.random.default_rng(5)
        for _ in range(300):
            ka, kb = rng.integers(0, 14, 2)
            ja = int(rng.integers(0, 1 << ka))
            jb = int(rng.integers(0, 1 << kb))
            a, b = GridNode(F(0), int(ka), ja), GridNode(F(0), int(kb), jb)
            # reference: walk both up to the root, compare ancestor sets
            anc = {(n := a)}
            while n.level > 0:
                n = parent(n)
                anc.add(n)
            n = b
            while n not in anc and n.level > 0:
                n = parent(n)
            expect = n.level if n in anc else 0
            assert lca_level(a, b) == expect


class TestMod1:
    @pytest.mark.parametrize("x, want", [
        (F(-1, 3), F(2, 3)), (F(-7, 2), F(1, 2)), (F(-1), F(0)), (F(-1, 1 << 70), 1 - F(1, 1 << 70)),
        (F(1), F(0)), (F(7, 3), F(1, 3)), (F(5), F(0)),
        (0, F(0)), (3, F(0)), (-2, F(0)), (1 << 80, F(0)),
        (0.75, F(3, 4)), (-0.25, F(3, 4)), (2.5, F(1, 2)), (-1e-300, 1 - F(1e-300)), (-0.0, F(0)),
        (F(0), F(0)), (F(1, 3), F(1, 3)), (F((1 << 60) - 1, 1 << 60), F((1 << 60) - 1, 1 << 60)),
    ])
    def test_reduces_to_the_unit_interval_exactly(self, x, want):
        got = mod1(x)
        assert type(got) is F and got == want and 0 <= got < 1

    @pytest.mark.parametrize("x", [F(0), F(1, 3), F((1 << 60) - 1, 1 << 60)])
    def test_reduced_fraction_is_returned_as_is(self, x):
        assert mod1(x) is x


class TestArcPredicates:
    def test_containment_basic(self):
        big = UnitArc(F(1, 2), F(1, 2))
        small = UnitArc(F(1, 2), F(1, 8))
        assert arc_contains_arc(big, small)
        assert not arc_contains_arc(small, big)
        # right endpoint belongs, left does not
        assert arc_contains_angle(big, F(3, 4))
        assert not arc_contains_angle(big, F(1, 4))

    def test_wraparound_containment(self):
        arc = UnitArc(F(0), F(1, 4))  # (7/8, 1/8]
        assert arc_contains_angle(arc, F(15, 16))
        assert arc_contains_angle(arc, F(1, 16))
        assert not arc_contains_angle(arc, F(1, 2))
