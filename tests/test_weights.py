"""Weight lattice: integrals, constants, maximal function, oscillation.

Brute-force reference implementations recompute every quantity from cell
lists in pure Python; the vectorized package code must agree with them.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from discweights.geometry import GridNode, area_carleson, area_top, beta_dyadic_nodes
from discweights.weights import (
    DyadicDomain,
    TreeWeight,
    b1_constant,
    box_area_vector,
    box_integral,
    bp_constant,
    cell_areas,
    cell_areas_exact,
    maximal,
    maximal_values,
    node_id,
    node_levels,
    osc_constants,
    random_domain,
    random_log_walk,
    reverse_holder,
    subtree_sums,
    values_at,
    weak_type_ratio,
)

from helpers import beta_dyadic_pairs, brute_c_const, brute_cell_id, brute_l_const


def brute_cells(depth, domain=None):
    """All (level, index, area) cells of the tree, exact rational areas."""
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
            total += w.value_at(k, j) ** power * float(area)
    return total


def brute_maximal(w, domain=None):
    """Max of restricted box averages over ancestors-or-self, per cell."""
    out = {}
    for k, j, _ in brute_cells(w.depth):
        best = -np.inf
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


class TestAreasAndSums:
    def test_cell_areas_tile_the_disc(self):
        for depth in (0, 1, 4, 9):
            exact = cell_areas_exact(depth)
            assert sum(exact) == 1
            assert cell_areas(depth)[1:].sum() == pytest.approx(1.0, abs=1e-14)

    def test_subtree_sums_against_brute_force(self):
        w = random_log_walk(5, seed=1)
        masses = w.values * cell_areas(5)
        masses[0] = 0
        sums = subtree_sums(masses, 5)
        for level, index in [(0, 0), (1, 1), (3, 5), (5, 17)]:
            assert sums[node_id(level, index)] == pytest.approx(
                brute_box_integral(w, level, index), rel=1e-12
            )

    def test_box_area_vector_cached_read_only(self):
        areas = box_area_vector(5)
        assert areas is box_area_vector(5)
        assert not areas.flags.writeable
        ell = F(1, 1 << 3)
        assert areas[node_id(3, 2)] == pytest.approx(float(area_carleson(ell)), rel=1e-14)

    def test_box_integral_restricted(self):
        w = random_log_walk(6, seed=2)
        om = random_domain(6, seed=3, density=0.4)
        for level, index in [(0, 0), (2, 3), (4, 11)]:
            assert box_integral(w, level, index, domain=om) == pytest.approx(
                brute_box_integral(w, level, index, domain=om), rel=1e-12
            )
        assert box_integral(w, 1, 0, power=-1.0) == pytest.approx(
            brute_box_integral(w, 1, 0, power=-1.0), rel=1e-12
        )


class TestBpConstant:
    def test_constant_weight_is_one_on_full_disc(self):
        for p in (1.5, 2.0, 3.0):
            w = TreeWeight.constant(7.3, depth=6)
            assert bp_constant(w, p) == pytest.approx(1.0, abs=1e-14)

    def test_restricted_constant_weight_at_most_one(self):
        w = TreeWeight.constant(1.0, depth=6)
        om = random_domain(6, seed=4, density=0.3)
        val = bp_constant(w, 2.0, om)
        assert val <= 1.0 + 1e-14
        # restricted B_1 of the constant weight can drop below one
        assert b1_constant(w, om) <= 1.0 + 1e-14

    def test_duality_exponent_exchange(self):
        # [w^{-1/(p-1)}]_{B_{p'}} == [w]_{B_p}^{1/(p-1)}, box by box
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = random_log_walk(7, rng=rng, sigma=0.8)
            for p in (1.5, 2.0, 3.0):
                pp = p / (p - 1)
                lhs = bp_constant(w.power(-1.0 / (p - 1)), pp)
                rhs = bp_constant(w, p) ** (1.0 / (p - 1))
                assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)

    def test_duality_restricted(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = random_log_walk(6, rng=rng, sigma=0.7)
            om = random_domain(6, rng=rng, density=0.5)
            lhs = bp_constant(w.power(-1.0), 2.0, om)
            rhs = bp_constant(w, 2.0, om)
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)

    def test_auxiliary_box_inequality(self):
        # w(S(I) cap Om) <= [w] (A(S(I))/A(K))^p w(K) for cell unions K inside
        rng = np.random.default_rng(11)
        w = random_log_walk(6, rng=rng, sigma=0.9)
        om = random_domain(6, rng=rng, density=0.7)
        p = 2.0
        bound = bp_constant(w, p, om)
        areas = cell_areas(6)
        for level, index in [(0, 0), (1, 1), (2, 2)]:
            cells = [
                (k, j) for k, j, _ in brute_cells(6, om)
                if k >= level and (j >> (k - level)) == index
            ]
            if not cells:
                continue
            for _ in range(20):
                take = [c for c in cells if rng.uniform() < 0.5] or cells[:1]
                a_k = sum(areas[node_id(k, j)] for k, j in take)
                w_k = sum(w.value_at(k, j) * areas[node_id(k, j)] for k, j in take)
                w_full = brute_box_integral(w, level, index, domain=om)
                a_s = float(area_carleson(F(1, 1 << level)))
                assert w_full <= bound * (a_s / a_k) ** p * w_k * (1 + 1e-12)


class TestMaximal:
    def test_hand_computed_depth_one(self):
        w = TreeWeight.from_node_values(0, 1, [((0, 0), 2.0), ((1, 0), 3.0), ((1, 1), 5.0)])
        m = maximal(w)
        # root average: 2*(1/4) + 3*(3/8) + 5*(3/8) = 3.5
        assert m.value_at(0, 0) == pytest.approx(3.5, abs=1e-15)
        assert m.value_at(1, 0) == pytest.approx(3.5, abs=1e-15)
        assert m.value_at(1, 1) == pytest.approx(5.0, abs=1e-15)
        assert b1_constant(w) == pytest.approx(1.75, abs=1e-15)

    def test_against_brute_force(self):
        w = random_log_walk(4, seed=12, sigma=1.0)
        ref = brute_maximal(w)
        m = maximal(w)
        for (k, j), v in ref.items():
            assert m.value_at(k, j) == pytest.approx(v, rel=1e-12)

    def test_against_brute_force_restricted(self):
        w = random_log_walk(4, seed=13, sigma=1.0)
        om = random_domain(4, seed=14, density=0.5)
        ref = brute_maximal(w, om)
        m = maximal(w, om)
        for (k, j), v in ref.items():
            assert m.value_at(k, j) == pytest.approx(v, rel=1e-12)

    def test_maximal_output_oscillates_boundedly(self):
        # the maximal function of anything has oscillation constant < 4,
        # because one step down shrinks boxes by a factor under 4
        rng = np.random.default_rng(15)
        for _ in range(20):
            f = random_log_walk(6, rng=rng, sigma=2.0)
            rep = osc_constants(maximal(f))
            assert rep.c_const < 4.0

    def test_weak_type_bounded_by_bp_constant(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            w = random_log_walk(6, rng=rng, sigma=0.8)
            om = random_domain(6, rng=rng, density=0.6)
            f = np.abs(rng.normal(size=1 << 7)) + 0.01
            bp = bp_constant(w, 2.0, om)
            m = maximal_values(f, 6, om)
            live = m[om.mask]
            for q in (0.25, 0.5, 0.75):
                lam = float(np.quantile(live, q))
                ratio = weak_type_ratio(w, f, 2.0, lam, om)
                assert ratio <= bp * (1 + 1e-12)


class TestReverseHolder:
    def test_constant_weight_flat(self):
        table = reverse_holder(TreeWeight.constant(4.0, 5))
        assert all(v == pytest.approx(1.0, abs=1e-13) for v in table.values())

    def test_monotone_in_r(self):
        w = random_log_walk(6, seed=17, sigma=1.2)
        table = reverse_holder(w, r_grid=[1.25, 1.5, 2.0, 3.0])
        vals = [table[r] for r in sorted(table)]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 1.0 - 1e-13


class TestOscillation:
    def test_constant_weight(self):
        rep = osc_constants(TreeWeight.constant(2.0, 6))
        assert rep.c_const == 1.0
        assert rep.l_const == 0.0
        assert rep.exact

    def test_log_walk_bounds(self):
        rng = np.random.default_rng(18)
        for sigma in (0.3, 0.8):
            w = random_log_walk(7, rng=rng, sigma=sigma)
            rep = osc_constants(w)
            # one tree edge moves log w by at most sigma, and a pair at
            # dyadic distance b is joined by at most 2b edges
            assert rep.l_const <= 2 * sigma + 1e-12
            assert rep.c_const <= math.exp(2 * sigma) + 1e-12

    def test_equivalence_of_the_two_constants(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            w = random_log_walk(6, rng=rng, sigma=rng.uniform(0.2, 1.5))
            rep = osc_constants(w)
            assert rep.l_const <= 2 * math.log(rep.c_const) + 1e-12
            assert rep.c_const <= math.exp(3 * rep.l_const) + 1e-12

    def test_equivalence_restricted(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            w = random_log_walk(6, rng=rng, sigma=1.0)
            om = random_domain(6, rng=rng, density=0.5)
            rep = osc_constants(w, om)
            assert rep.l_const <= 2 * math.log(max(rep.c_const, 1.0)) + 1e-12
            assert rep.c_const <= math.exp(3 * rep.l_const) + 1e-12

    def test_squared_level_weight_constants(self):
        # w = exp(level^2): constant on every top half but not of bounded
        # oscillation; the pair supremum has a closed form over levels
        for depth in (5, 8):
            vals = np.ones(1 << (depth + 1))
            lv = node_levels(depth)
            vals[1:] = np.exp((lv[1:] ** 2).astype(float))
            w = TreeWeight(0, depth, vals)
            rep = osc_constants(w)
            expect_l = max(
                t * (2 * depth - t) / (1 + t) for t in range(1, depth + 1)
            )
            assert rep.l_const == pytest.approx(expect_l, rel=1e-12)
            assert rep.c_const == pytest.approx(math.exp(2 * depth - 1), rel=1e-12)

    @pytest.mark.parametrize("seed", range(48))
    def test_l_const_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        depth = seed % 10
        w = random_log_walk(depth, rng=rng, sigma=rng.uniform(0.2, 1.5))
        om = random_domain(depth, rng=rng, density=rng.uniform(0.05, 0.9)) if seed % 2 else None
        rep = osc_constants(w, om)
        n = om.cell_count() if om is not None else (1 << (depth + 1)) - 1
        assert rep.exact
        assert rep.pairs == n * (n - 1) // 2
        assert rep.l_const == pytest.approx(brute_l_const(w, om), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(48))
    def test_c_const_matches_arc_loop_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        depth = seed % 10
        w = random_log_walk(depth, rng=rng, sigma=rng.uniform(0.2, 1.5))
        om = None
        if seed % 3 == 1:
            om = random_domain(depth, rng=rng, density=rng.uniform(0.05, 0.9))
        elif seed % 3 == 2:
            level = int(rng.integers(0, depth + 1))
            index = int(rng.integers(0, 1 << level))
            om = DyadicDomain.from_generators(0, depth, [(level, index)])
        assert osc_constants(w, om).c_const == brute_c_const(w, om)

    def test_one_cell_domain(self):
        w = random_log_walk(5, seed=24, sigma=1.0)
        om = DyadicDomain.from_generators(0, 5, [(3, 5)])
        rep = osc_constants(w, om)
        assert rep.l_const == 0.0
        assert rep.pairs == 0 and rep.exact

    def test_domain_with_an_empty_child_subtree(self):
        # the root's right subtree holds no domain cell, so every node on
        # that side compares against empty (+-inf) sides
        depth = 6
        w = random_log_walk(depth, seed=25, sigma=1.0)
        mask = random_domain(depth, seed=26, density=0.6).mask.copy()
        right = np.zeros_like(mask)
        for k in range(1, depth + 1):
            right[(1 << k) + (1 << (k - 1)) : 1 << (k + 1)] = True
        mask[right] = False
        mask[node_id(1, 0)] = True
        om = DyadicDomain(0, depth, mask)
        rep = osc_constants(w, om)
        assert rep.l_const > 0
        assert rep.l_const == pytest.approx(brute_l_const(w, om), rel=1e-12)

    def test_exact_above_four_thousand_cells(self):
        w = random_log_walk(12, seed=1, sigma=0.6)
        om = random_domain(12, seed=2, density=0.55)
        n = om.cell_count()
        assert n > 4096
        rep = osc_constants(w, om)
        assert rep.exact
        assert rep.pairs == n * (n - 1) // 2
        assert rep.l_const == pytest.approx(brute_l_const(w, om), rel=1e-12)

    def test_pairwise_beta_matrix_matches_geometry(self):
        rng = np.random.default_rng(21)
        levels = rng.integers(0, 10, 40)
        indices = np.array([rng.integers(0, 1 << k) for k in levels])
        levels, indices = levels.astype(np.int64), indices.astype(np.int64)
        mat = beta_dyadic_pairs(levels, indices, levels, indices)
        for a in range(40):
            for b in range(40):
                na = GridNode(0, int(levels[a]), int(indices[a]))
                nb = GridNode(0, int(levels[b]), int(indices[b]))
                assert mat[a, b] == beta_dyadic_nodes(na, nb)


class TestValuesAt:
    """The batched point lookup over trees with different offsets."""

    DEPTH = 5

    def points(self, thetas):
        """Dyadic points, exact in floats: the centre, exact dyadic radii,
        points below the leaf level, every offset's grid lines at every
        level, and random interior points."""
        rng = np.random.default_rng(60)
        depth = self.DEPTH
        radii = [0.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 4)]
        radii += list(1.0 - rng.integers(1, 1 << 20, 40) / float(1 << 20))
        angles = [0.0, 0.5] + list(rng.integers(0, 1 << 20, 40) / float(1 << 20))
        for theta in thetas:
            for k in range(depth + 1):
                angles += [float((theta + F(j, 1 << k)) % 1) for j in range(1 << k)]
        r, a = np.meshgrid(np.array(radii), np.array(angles), indexing="ij")
        return r, a

    def test_rows_match_eval_polar_bitwise(self):
        thetas = [F(0), F(1, 16), F(3, 16), F(1, 3), F(5, 7), F(15, 16)]
        trees = [random_log_walk(self.DEPTH, seed=70 + i, theta=t)
                 for i, t in enumerate(thetas)]
        r, a = self.points([t for t in thetas if t.denominator == 16])
        batch = values_at(np.stack([t.values for t in trees]),
                          [t.theta for t in trees], self.DEPTH, r, a)
        assert batch.shape == (len(trees),) + r.shape
        for row, tree in zip(batch, trees):
            assert row.tobytes() == tree.eval_polar(r, a).tobytes()

    def test_cells_match_exact_lookup(self):
        depth = self.DEPTH
        thetas = [F(2 * i + 1, 16) for i in range(8)]
        ids = np.arange(1 << (depth + 1), dtype=np.float64)
        r, a = self.points(thetas)
        r, a = r.ravel(), a.ravel()
        got = values_at(np.stack([ids] * len(thetas)), thetas, depth, r, a)
        for row, theta in zip(got, thetas):
            expect = [brute_cell_id(depth, theta, ri, ai) for ri, ai in zip(r, a)]
            assert row.astype(np.int64).tolist() == expect


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        w = random_log_walk(6, seed=22)
        again = TreeWeight.from_json_dict(w.to_json_dict())
        assert again.theta == w.theta and again.depth == w.depth
        assert np.array_equal(again.values[1:], w.values[1:])
        path = tmp_path / "w.json"
        w.dump(path)
        assert np.array_equal(TreeWeight.load(path).values[1:], w.values[1:])

    def test_domain_generators_round_trip(self):
        om = random_domain(5, seed=23, density=0.4)
        again = DyadicDomain.from_generators(om.theta, om.depth, om.generator_nodes())
        assert np.array_equal(again.mask, om.mask)
