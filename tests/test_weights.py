"""Weight lattice: integrals, constants, maximal function, oscillation.

The brute-force references in helpers recompute every quantity from cell
lists in pure Python; the vectorized package code must agree with them.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from discweights import weights
from discweights.geometry import GridNode, area_carleson
from discweights.weights import (
    DyadicDomain,
    TreeWeight,
    _TreeWork,
    _b1_values,
    _bad_rows,
    _bp_values,
    _c_values,
    _checked,
    _log_pair_sup,
    _mask,
    ancestor_max,
    b1_constant,
    box_area_vector,
    bp_constant,
    c_const,
    cell_areas,
    maximal,
    maximal_values,
    node_levels,
    osc_constants,
    random_domain,
    random_log_walk,
    subtree_sums,
    values_at,
)

from helpers import (
    beta_dyadic_nodes,
    beta_dyadic_pairs,
    brute_box_integral,
    brute_c_const,
    brute_cell_ids,
    brute_cells,
    brute_l_const,
    brute_maximal,
    cell_masses,
    from_generators,
    from_node_values,
    node_id,
    repeat_ancestor_max,
    slice_add_subtrees,
    slice_max_ancestors,
    slice_maximal_values,
    stacked_c_values,
    weak_type_ratio,
)


class TestAreasAndSums:
    def test_cell_areas_tile_the_disc(self):
        for depth in (0, 1, 4, 9):
            assert sum(area for _, _, area in brute_cells(depth)) == 1
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
                w_k = sum(w.values[node_id(k, j)] * areas[node_id(k, j)] for k, j in take)
                w_full = brute_box_integral(w, level, index, domain=om)
                a_s = float(area_carleson(F(1, 1 << level)))
                assert w_full <= bound * (a_s / a_k) ** p * w_k * (1 + 1e-12)


class TestMaximal:
    def test_hand_computed_depth_one(self):
        w = from_node_values(0, 1, [((0, 0), 2.0), ((1, 0), 3.0), ((1, 1), 5.0)])
        m = maximal(w)
        # root average: 2*(1/4) + 3*(3/8) + 5*(3/8) = 3.5
        assert m.values[node_id(0, 0)] == pytest.approx(3.5, abs=1e-15)
        assert m.values[node_id(1, 0)] == pytest.approx(3.5, abs=1e-15)
        assert m.values[node_id(1, 1)] == pytest.approx(5.0, abs=1e-15)
        assert b1_constant(w) == pytest.approx(1.75, abs=1e-15)

    def test_against_brute_force(self):
        w = random_log_walk(4, seed=12, sigma=1.0)
        ref = brute_maximal(w)
        m = maximal(w)
        for (k, j), v in ref.items():
            assert m.values[node_id(k, j)] == pytest.approx(v, rel=1e-12)

    def test_against_brute_force_restricted(self):
        w = random_log_walk(4, seed=13, sigma=1.0)
        om = random_domain(4, seed=14, density=0.5)
        ref = brute_maximal(w, om)
        m = maximal(w, om)
        for (k, j), v in ref.items():
            assert m.values[node_id(k, j)] == pytest.approx(v, rel=1e-12)

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
        n = int(om.mask.sum()) if om is not None else (1 << (depth + 1)) - 1
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
            om = from_generators(0, depth, [(level, index)])
        assert osc_constants(w, om).c_const == c_const(w, om) == brute_c_const(w, om)

    def test_one_cell_domain(self):
        w = random_log_walk(5, seed=24, sigma=1.0)
        om = from_generators(0, 5, [(3, 5)])
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
        n = int(om.mask.sum())
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
            expect = brute_cell_ids(depth, theta, r.tolist(), a.tolist())
            assert row.astype(np.int64).tolist() == expect


class TestStackedKernels:
    """A (T, 2^(N+1)) stack gives, row by row, the one-tree results bitwise."""

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("depth", range(10))
    def test_rows_match_single_trees(self, depth, restricted):
        rng = np.random.default_rng(500 + depth)
        trees = [random_log_walk(depth, rng=rng, sigma=0.7).values for _ in range(4)]
        domain = random_domain(depth, rng=rng, density=0.5) if restricted else None
        stack = np.stack(trees)
        masses = cell_masses(stack, depth, domain)
        sums = subtree_sums(masses, depth)
        avg = sums / box_area_vector(depth)
        cascade = ancestor_max(avg, depth)
        maxima = maximal_values(stack, depth, domain)
        for row, values in enumerate(trees):
            one = cell_masses(values, depth, domain)
            assert one.shape == values.shape
            assert np.array_equal(masses[row], one)
            assert np.array_equal(sums[row], subtree_sums(one, depth))
            assert np.array_equal(cascade[row], ancestor_max(avg[row], depth),
                                  equal_nan=True)
            single = maximal_values(values, depth, domain)
            assert single.shape == values.shape and np.isnan(single[0])
            assert np.array_equal(maxima[row], single, equal_nan=True)

        # the constants, each tree with its own domain (or none)
        doms = [random_domain(depth, rng=rng, density=0.5) if restricted else None
                for _ in trees]
        masks = np.stack([_mask(om, depth) for om in doms])
        stacked = {
            "c_const": _c_values(stack, masks, depth),
            "b1_constant": _b1_values(stack, masks, depth),
            "l_const": _log_pair_sup(stack, masks, depth),
            **{f"bp_constant_{p}": _bp_values(stack, p, masks, depth) for p in (1.5, 2.0, 3.0)},
        }
        for row, (values, om) in enumerate(zip(trees, doms)):
            w = TreeWeight(0, depth, values)
            single = {
                "c_const": c_const(w, om),
                "b1_constant": b1_constant(w, om),
                "l_const": osc_constants(w, om).l_const,
                **{f"bp_constant_{p}": bp_constant(w, p, om) for p in (1.5, 2.0, 3.0)},
            }
            for name, value in single.items():
                assert stacked[name].shape == (len(trees),)
                assert stacked[name][row] == value, name


class TestMaximalKernel:
    """maximal_values works in one buffer; it must equal the composed
    kernels bitwise, and those the np.repeat cascade."""

    @pytest.mark.parametrize("depth", range(12))
    def test_matches_composed_kernels(self, depth):
        rng = np.random.default_rng(700 + depth)
        stack = np.stack([random_log_walk(depth, rng=rng, sigma=0.9).values for _ in range(3)])
        stack *= rng.choice([-1.0, 0.0, 1.0], size=stack.shape, p=[0.4, 0.1, 0.5])  # through |f|
        domain = random_domain(depth, rng=rng, density=0.5)
        for values in (stack, stack[1]):
            for om in (None, domain):
                before = values.copy()
                got = maximal_values(values, depth, om)
                assert values.tobytes() == before.tobytes()
                avg = subtree_sums(cell_masses(np.abs(values), depth, om), depth) \
                    / box_area_vector(depth)
                want = ancestor_max(avg, depth)
                assert got.shape == values.shape
                assert got.tobytes() == want.tobytes()
                assert want.tobytes() == repeat_ancestor_max(avg, depth).tobytes()


def signed_stack(depth, rows, seed):
    """rows seeded random walks of one depth with random signs and zeros
    (the maximal function takes |f|), one tree when rows is None."""
    rng = np.random.default_rng(seed)
    count = 1 if rows is None else int(np.prod(rows))
    vals = np.stack([random_log_walk(depth, rng=rng, sigma=0.9).values for _ in range(count)])
    vals *= rng.choice([-1.0, 0.0, 1.0], size=vals.shape, p=[0.4, 0.1, 0.5])
    return vals[0] if rows is None else vals.reshape(tuple(rows) + (vals.shape[-1],))


class TestTreeWork:
    """The tree workspace against the slice-per-level kernels it replaced,
    kept as oracles in helpers: bitwise on one tree, stacks of any leading
    shape, the smallest depths and masked input, fresh or reused."""

    SHAPES = [None, (3,), (2, 3)]

    @pytest.mark.parametrize("rows", SHAPES)
    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 9])
    def test_kernels_match_slice_oracles(self, depth, rows):
        values = signed_stack(depth, rows, 900 + depth)
        sums = subtree_sums(values, depth)
        want = values.copy()
        slice_add_subtrees(want, depth)
        assert sums.shape == values.shape and sums.tobytes() == want.tobytes()
        got = ancestor_max(values, depth)
        want = values.copy()
        slice_max_ancestors(want, depth)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", SHAPES)
    @pytest.mark.parametrize("depth", [0, 1, 2, 6])
    def test_maximal_matches_slice_oracle(self, depth, rows):
        values = signed_stack(depth, rows, 950 + depth)
        domain = random_domain(depth, seed=960 + depth, density=0.5)
        for om in (None, domain):
            mask = None if om is None else om.mask
            want = slice_maximal_values(values, depth, mask)
            assert maximal_values(values, depth, om).tobytes() == want.tobytes()
            work = _TreeWork(np.abs(values), depth)
            assert work.maximal(mask) is work.buf
            assert work.buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", SHAPES)
    def test_reused_workspace_matches_fresh_calls(self, rows):
        """One workspace refilled many times gives each call's fresh result:
        nothing of an earlier call survives in the buffer or the scratch."""
        depth = 6
        work = _TreeWork(np.empty(signed_stack(depth, rows, 0).shape), depth)
        views = [tuple(v.ctypes.data for v in level) for level in work.levels]
        for seed in range(5):
            values = signed_stack(depth, rows, 970 + seed)
            np.abs(values, out=work.buf)
            assert work.maximal().tobytes() == slice_maximal_values(values, depth).tobytes()
            np.copyto(work.buf, values)
            work.add_subtrees()
            want = values.copy()
            slice_add_subtrees(want, depth)
            assert work.buf.tobytes() == want.tobytes()
        assert [tuple(v.ctypes.data for v in level) for level in work.levels] == views

    def test_level_views_share_the_buffer(self):
        work = _TreeWork(np.zeros((4, 1 << 6)), 5)
        assert len(work.levels) == 5
        for k, (parent, left, right, scratch) in enumerate(work.levels):
            assert parent.shape == left.shape == right.shape == scratch.shape == (1 << k, 4)
            for view in (parent, left, right):
                assert np.shares_memory(view, work.buf)
            assert not np.shares_memory(scratch, work.buf)
        assert _TreeWork(np.zeros(2), 0).levels == []


class TestCConst:
    """_c_values masks once and chains max and min over the three views; it
    equals the stacked trios it replaced bitwise."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 8])
    def test_matches_stacked_trios(self, depth):
        rng = np.random.default_rng(980 + depth)
        stack = np.stack([random_log_walk(depth, rng=rng, sigma=0.8).values for _ in range(4)])
        size = stack.shape[-1]
        masks = [np.ones(size, dtype=bool), np.zeros(size, dtype=bool),
                 rng.uniform(size=size) < 0.3, rng.uniform(size=(4, size)) < 0.5,
                 rng.uniform(size=(4, size)) < 0.05]
        for mask in masks:
            for values in (stack, stack[2]):
                if mask.ndim > values.ndim:
                    continue
                got = _c_values(values, mask, depth)
                want = stacked_c_values(values, mask, depth)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def isfinite_bad_rows(values):
    """_bad_rows as it was, one isfinite & > 0 pass."""
    body = values[..., 1:]
    return ~np.all(np.isfinite(body) & (body > 0), axis=-1)


class TestRowCheck:
    THETAS = [F(2 * i + 1, 10) for i in range(5)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, 5e-324])
    def test_matches_isfinite_form(self, bad):
        depth = 4
        stack = np.stack([random_log_walk(depth, seed=80 + i).values for i in range(5)])
        stack[:, 0] = bad  # slot 0 is unused
        assert not _bad_rows(stack).any()
        for row in (0, 2, 4):
            for slot in (1, 9, (2 << depth) - 1):
                values = stack.copy()
                values[row, slot] = bad
                values[4, 3] = bad  # a second bad row after the first
                flags = _bad_rows(values)
                assert flags.tolist() == isfinite_bad_rows(values).tolist()
                for one in values:
                    assert bool(_bad_rows(one)) == bool(isfinite_bad_rows(one))
                if flags.any():
                    with pytest.raises(ValueError, match=rf"^offset {self.THETAS[row]} failed"):
                        _checked(self.THETAS, values)
                    with pytest.raises(ValueError, match="positive and finite"):
                        TreeWeight(0, depth, values[row])
                else:
                    assert bad == 5e-324
                    TreeWeight(0, depth, values[row])

    def test_tree_rows_check_the_stack_once(self, monkeypatch):
        """_tree_rows checks the whole stack in one pass and builds each row's
        tree without a second check; each tree is a view of its row, with
        its offset reduced as TreeWeight reduces it."""
        depth = 3
        stack = np.stack([random_log_walk(depth, seed=90 + i).values for i in range(5)])
        thetas = self.THETAS[:4] + [F(7, 5)]
        calls = []
        real = weights._bad_rows
        monkeypatch.setattr(weights, "_bad_rows", lambda v: calls.append(v.shape) or real(v))
        rows = weights._tree_rows(thetas, depth, stack)
        assert calls == [stack.shape]
        for tree, theta, values in zip(rows, thetas, stack):
            want = TreeWeight(theta, depth, values)
            assert (tree.theta, tree.depth) == (want.theta, want.depth)
            assert np.shares_memory(tree.values, stack) and tree.values.tobytes() == values.tobytes()
        assert rows[-1].theta == F(2, 5)
        stack[2, 5] = np.nan
        with pytest.raises(ValueError, match=rf"^offset {thetas[2]} failed"):
            weights._tree_rows(thetas, depth, stack)
