"""Dyadic martingales: digit rules, deviation counts, disc traces, builder."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discweights import martingales
from discweights.geometry import GridNode
from discweights.martingales import (
    DyadicMartingale,
    PointSeq,
    SeqEntry,
    azuma_counts,
    azuma_fit,
    azuma_table,
    bloch_seminorm,
    carleson_sup,
    counterexample_build,
    default_probe_addresses,
    divergence_terms,
    kahane,
    martingale_from_spec,
    radial_chain,
    random_pm1,
    random_walk,
    threshold_sequence,
    trace_sup_i,
    trace_weak_l1,
)
from helpers import (
    anchor_point,
    brute_azuma_count,
    brute_carleson_sup,
    brute_pair_invariants,
    brute_trace_sup_i,
    brute_trace_weak_l1,
    carleson_sum_at,
    dict_crossing_classes,
    fraction_build_parents,
    seq_anchors,
    weak_separation_ok,
)


def walk_count_oracle(eps, k):
    """Binomial count of |sum of k signed digits| > eps k, threshold exact."""
    e = Fraction(str(eps))
    return sum(math.comb(k, j) for j in range(k + 1)
               if abs(Fraction(2 * j - k)) > e * k)


def kahane_count_oracle(eps, k):
    """Quarter-pattern count from the root: the value after k digits is a
    sum of m = k // 2 independent signs, each shared by two digit pairs,
    and a trailing odd digit is free."""
    e = Fraction(str(eps))
    m = k // 2
    inner = sum(math.comb(m, j) for j in range(m + 1)
                if abs(Fraction(2 * j - m)) > e * k)
    return (1 << (k - m)) * inner


def naive_pair_mass(gap1, angle1, gap2, angle2):
    """1 - rho^2 by direct complex arithmetic; fine at shallow levels."""
    def pt(gap, angle):
        r = 1.0 - float(gap)
        return complex(r * math.cos(2 * math.pi * float(angle)),
                       r * math.sin(2 * math.pi * float(angle)))
    z, w = pt(gap1, angle1), pt(gap2, angle2)
    return 1.0 - abs(z - w) ** 2 / abs(1.0 - z.conjugate() * w) ** 2


def log_inv_mass(level):
    return -math.log(2.0 ** -level * (2.0 - 2.0 ** -level))


addresses = st.text(st.sampled_from("01"), min_size=0, max_size=12)


class TestMartingaleValues:
    def test_quarter_pattern_first_levels(self):
        K = kahane()
        assert K.level_values(0).tolist() == [0.0]
        assert K.level_values(1).tolist() == [0.0, 0.0]
        assert K.level_values(2).tolist() == [1.0, -1.0, -1.0, 1.0]
        assert K.level_values(3).tolist() == [1.0, 1.0, -1.0, -1.0,
                                              -1.0, -1.0, 1.0, 1.0]
        assert K.level_values(4).tolist() == [2.0, 0.0, 0.0, 2.0,
                                              0.0, -2.0, -2.0, 0.0,
                                              0.0, -2.0, -2.0, 0.0,
                                              2.0, 0.0, 0.0, 2.0]

    def test_odd_levels_copy_parent(self):
        K = kahane()
        for n in (1, 3, 5, 7):
            child = K.level_values(n)
            parent = np.repeat(K.level_values(n - 1), 2)
            assert np.array_equal(child, parent)

    def test_walk_preferred_pair_values(self):
        # the right edge of the left half against the left edge of the
        # right half: k - 2 versus -(k - 2)
        W = random_walk()
        for k in range(2, 13):
            assert W.value("0" + "1" * (k - 1)) == k - 2
            assert W.value("1" + "0" * (k - 1)) == -(k - 2)

    def test_quarter_extremal_path(self):
        K = kahane()
        for m in range(1, 15):
            assert K.value("00" * m) == m
        assert K.value("0" * 28) == 14

    def test_level_values_match_pointwise(self):
        for M in (random_walk(), kahane(), random_pm1(6, seed=11)):
            for n in (0, 1, 4, 6):
                vals = M.level_values(n)
                for i in range(1 << n):
                    assert vals[i] == M.value(format(i, f"0{n}b") if n else "")

    def test_pm1_increments_are_unit(self):
        M = random_pm1(9, seed=4)
        for n in range(1, 10):
            child = M.level_values(n)
            parent = np.repeat(M.level_values(n - 1), 2)
            assert np.array_equal(np.abs(child - parent), np.ones(1 << n))

    def test_depth_guard(self):
        M = random_pm1(5, seed=0)
        with pytest.raises(ValueError):
            M.value("0" * 6)
        with pytest.raises(ValueError):
            M.level_values(6)
        W = random_walk(depth=4)
        with pytest.raises(ValueError):
            W.value("01011")


class TestMidpointLaw:
    def test_construction_rejects_non_martingale(self):
        with pytest.raises(ValueError, match="midpoint law fails at level 0"):
            DyadicMartingale("materialized", levels=[[0.0], [1.0, 0.0]])

    def test_construction_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="level 1 must hold 2 values"):
            DyadicMartingale("materialized", levels=[[0.0], [1.0, -1.0, 0.0]])

    def test_integer_levels_keep_their_dtype(self):
        M = random_pm1(6, seed=11)
        assert {lv.dtype for lv in M._levels} == {np.dtype(np.int8)}
        assert M.level_values(6).dtype == np.float64
        assert type(M.value("010")) is float
        with pytest.raises(ValueError, match="midpoint law fails at level 0"):
            DyadicMartingale("materialized", levels=[np.zeros(1, np.int8),
                                                     np.array([1, 0], np.int8)])
        # 100 + 100 wraps in int8; the law is checked without overflow
        big = DyadicMartingale("materialized", levels=[np.array([100], np.int8),
                                                       np.array([100, 100], np.int8)])
        assert big.check_midpoint_law() == 1

    def test_materialized_exhaustive(self):
        M = random_pm1(10, seed=2)
        assert M.check_midpoint_law() == (1 << 10) - 1

    def test_digit_rules_checked_row_by_row(self):
        # one step table with two rows for the walk, two tables for kahane
        assert random_walk().check_midpoint_law() == 2
        assert kahane().check_midpoint_law() == 4

    def test_unbalanced_step_row_fails_the_law(self, monkeypatch):
        monkeypatch.setitem(martingales._RULES, "kahane",
                            (((1, -1), (-1, 1)), ((0, 0), (1, 0))))
        with pytest.raises(ValueError, match="midpoint law fails in table 1 of 'kahane'"):
            kahane().check_midpoint_law()

    @given(address=addresses)
    @settings(max_examples=150, deadline=None)
    def test_law_at_arbitrary_address(self, address):
        for M in (random_walk(), kahane()):
            children = M.value(address + "0") + M.value(address + "1")
            assert M.value(address) == children / 2

    def test_spec_round_trips(self):
        M = random_pm1(7, seed=3)
        back = martingale_from_spec({"kind": "random_pm1", "depth": 7, "seed": 3})
        for n in range(8):
            assert np.array_equal(back.level_values(n), M.level_values(n))
        spec = {"kind": "materialized",
                "values": [lv.tolist() for lv in (M.level_values(n) for n in range(8))]}
        mat = martingale_from_spec(spec)
        assert mat.value("0110101") == M.value("0110101")
        assert martingale_from_spec({"kind": "kahane"}).value("00" * 15) == 15

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown martingale kind"):
            martingale_from_spec({"kind": "mystery"})

    def test_kind_without_rule_or_levels_raises(self):
        for kind in ("mystery", "materialized", "random_pm1"):
            with pytest.raises(ValueError, match="no digit rule and no materialized levels"):
                DyadicMartingale(kind)


class TestBlochSeminorm:
    def test_quarter_pattern_jump_bound(self):
        # adjacent same-level values never differ by more than 2, and the
        # bound is attained from level 2 on
        K = kahane()
        for depth in range(2, 15):
            assert bloch_seminorm(K, depth) == 2.0

    def test_walk_grows_linearly(self):
        # attained by the preferred pair, so 2(k - 2) from depth 3 on
        W = random_walk()
        for k in range(3, 13):
            assert bloch_seminorm(W, k) == 2 * (k - 2)

    def test_walk_depth_two_floor(self):
        # at depth 2 the extreme pair (00, 01) already differs by 2, so
        # the linear formula (which gives 0) starts one level later
        assert bloch_seminorm(random_walk(), 2) == 2.0

    def test_constant_martingale(self):
        M = DyadicMartingale("materialized", levels=[[1.5], [1.5, 1.5]])
        assert bloch_seminorm(M, 1) == 0.0


class TestAzumaCounts:
    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.5, 0.75, 1.0])
    def test_walk_matches_binomial_oracle(self, eps):
        W = random_walk()
        for k in range(1, 13):
            assert azuma_counts(W, eps, k) == walk_count_oracle(eps, k)

    def test_walk_counts_do_not_depend_on_base(self):
        W = random_walk()
        for base in ("", "0", "1101"):
            assert azuma_counts(W, 0.3, 9, base=base) == walk_count_oracle(0.3, 9)

    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.5])
    def test_quarter_pattern_matches_oracle(self, eps):
        K = kahane()
        for k in range(1, 13):
            assert azuma_counts(K, eps, k) == kahane_count_oracle(eps, k)

    def test_quarter_pattern_halved_speed(self):
        # the value moves once per two levels, so |value| <= k/2 and any
        # eps >= 1/2 leaves nothing to count
        K = kahane()
        for k in range(1, 16):
            assert azuma_counts(K, 0.5, k) == 0
            assert azuma_counts(K, 0.75, k) == 0

    def test_pm1_counts_equal_binomial_from_any_base(self):
        # every node passes +1 to one child and -1 to the other, so the
        # value distribution below any base is the signed-digit binomial
        M = random_pm1(14, seed=7)
        for eps in (0.25, 0.5, 0.75):
            for k in (3, 6, 9):
                for base in ("", "01", "11010"):
                    assert azuma_counts(M, eps, k, base=base) == walk_count_oracle(eps, k)

    @staticmethod
    def _symmetric(half_leaves):
        """Materialized martingale whose last level is half_leaves followed
        by their negatives: parents are exact midpoints and the root is 0,
        so |M_J - M_root| is exactly the leaf's absolute value."""
        leaves = np.concatenate([half_leaves, -np.asarray(half_leaves)])
        levels = [leaves]
        while levels[0].size > 1:
            levels.insert(0, (levels[0][0::2] + levels[0][1::2]) / 2.0)
        return DyadicMartingale("materialized", levels=levels)

    @pytest.mark.parametrize("eps, k", [(0.5, 6), (0.3, 7)])
    def test_materialized_threshold_is_exact(self, eps, k):
        # 0.5 * 6 = 3 is a float; 0.3 * 7 = 21/10 is not, and the float 2.1
        # lies above it, so 2.1 itself counts while the float below does not
        thr = Fraction(str(eps)) * k
        near = float(thr)
        ulps = [near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)]
        rng = np.random.default_rng(3)
        half = 1 << (k - 1)
        leaves = np.concatenate([ulps, rng.uniform(0, 2 * near, half - len(ulps))])
        M = self._symmetric(leaves)
        assert azuma_counts(M, eps, k) == brute_azuma_count(M, eps, k)
        above = [Fraction(v) > thr for v in ulps]
        assert above == ([False, True, False] if eps == 0.5 else [True, True, False])

    def test_materialized_matches_oracle_below_bases(self):
        rng = np.random.default_rng(11)
        M = self._symmetric(np.round(rng.normal(0, 3, 1 << 9), 3))
        assert not np.all(M.level_values(10) == np.round(M.level_values(10)))
        P = random_pm1(10, seed=2)
        for martingale in (M, P):
            for eps in (0.1, 0.25, 0.3, 0.5, Fraction(1, 3)):
                for k in (1, 4, 7):
                    for base in ("", "1", "011"):
                        assert azuma_counts(martingale, eps, k, base) == \
                            brute_azuma_count(martingale, eps, k, base)

    @pytest.mark.parametrize("make", [random_walk, kahane])
    @pytest.mark.parametrize("base", ["", "0", "011", "1011"])
    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.5, Fraction(1, 3)])
    def test_digit_rules_match_brute_count(self, make, base, eps):
        # eps k runs through integers (0.25 * 4, 0.5 * 2, k / 3 at k = 3)
        # and non-integers, so the integer cut floor(eps k) is tested on both
        M = make()
        for k in range(1, 13):
            assert azuma_counts(M, eps, k, base) == brute_azuma_count(M, eps, k, base)

    def test_materialized_route_agrees(self):
        K = kahane()
        KM = DyadicMartingale("materialized",
                              levels=[K.level_values(n) for n in range(11)])
        for eps in (0.3, 0.5):
            for k in (4, 7):
                for base in ("", "011"):
                    assert azuma_counts(KM, eps, k, base=base) == azuma_counts(K, eps, k, base=base)

    def test_materialized_sliced_by_hand(self):
        M = random_pm1(9, seed=13)
        base, k = "10", 7
        vals = M.level_values(9)[int(base, 2) << k:(int(base, 2) + 1) << k]
        v0 = M.value(base)
        expected = int(np.sum(np.abs(vals - v0) > 0.3 * k + 1e-12))
        assert azuma_counts(M, 0.3, k, base=base) == expected

    def test_eps_is_read_decimally(self):
        # 0.3 * 20 must mean 6 exactly: the walk value 6 at k = 20 is not
        # an exceedance, which the binary float threshold would miss
        W = random_walk()
        assert azuma_counts(W, 0.3, 20) == azuma_counts(W, Fraction(3, 10), 20)
        assert azuma_counts(W, 0.3, 20) == walk_count_oracle(Fraction(3, 10), 20)

    def test_validation(self):
        K = kahane()
        with pytest.raises(ValueError):
            azuma_counts(K, 0.3, 0)
        with pytest.raises(ValueError):
            azuma_counts(K, 0.0, 3)
        M = random_pm1(5, seed=0)
        with pytest.raises(ValueError, match="need depth"):
            azuma_counts(M, 0.3, 4, base="000")
        # a declared depth binds the counts as it binds value()
        with pytest.raises(ValueError, match="need depth 10, have 3"):
            azuma_counts(kahane(3), 0.3, 10)
        assert azuma_counts(kahane(10), 0.3, 10) == azuma_counts(kahane(), 0.3, 10)


class TestAzumaTable:
    # unsorted, with gaps and a repeat, so rows follow the grid as given
    K_GRID = [7, 3, 12, 5, 9, 3]

    def test_row_order_eps_outer(self):
        rows = azuma_table(random_walk(), [0.5, 0.25], self.K_GRID)
        assert [(r.eps, r.k) for r in rows] == \
            [(e, k) for e in (0.5, 0.25) for k in self.K_GRID]
        assert all(r.total == 1 << r.k for r in rows)

    @pytest.mark.parametrize("make", [random_walk, kahane])
    @pytest.mark.parametrize("base", ["", "1", "0110"])
    def test_digit_rules_match_brute_count(self, make, base):
        M = make()
        eps_grid = [0.25, 0.3, Fraction(1, 3), 0.5]
        for r, (eps, k) in zip(azuma_table(M, eps_grid, self.K_GRID, base),
                               [(e, k) for e in eps_grid for k in self.K_GRID]):
            assert r.count == brute_azuma_count(M, eps, k, base)
            if make is random_walk:
                assert r.count == walk_count_oracle(eps, k)

    @pytest.mark.parametrize("eps_grid", [[0.3, 0.5, 0.7], [0.1, 0.2]])
    def test_deep_rows_match_closed_forms(self, eps_grid):
        ks = list(range(60, 4, -5))
        for M, oracle in ((random_walk(), walk_count_oracle), (kahane(), kahane_count_oracle)):
            rows = azuma_table(M, eps_grid, ks)
            assert [r.count for r in rows] == [oracle(e, k) for e in eps_grid for k in ks]

    def test_k_min_above_one(self):
        K = kahane()
        rows = azuma_table(K, [0.3], range(15, 31))
        assert [r.count for r in rows] == [kahane_count_oracle(0.3, k) for k in range(15, 31)]

    def test_materialized_rows_match_brute_count(self):
        rng = np.random.default_rng(5)
        S = TestAzumaCounts._symmetric(np.round(rng.normal(0, 2, 1 << 9), 2))
        P = random_pm1(10, seed=4)
        for M in (S, P):
            for base in ("", "10"):
                rows = azuma_table(M, [0.1, Fraction(1, 3), 0.5], [8, 2, 5], base)
                assert [r.count for r in rows] == [
                    brute_azuma_count(M, e, k, base)
                    for e in (0.1, Fraction(1, 3), 0.5) for k in (8, 2, 5)]

    def test_integer_levels_count_like_their_float_copy(self):
        P = random_pm1(12, seed=9)
        assert P._levels[12].dtype == np.int8
        PF = DyadicMartingale("materialized", levels=[P.level_values(n) for n in range(13)])
        # thresholds past the int8 range must not wrap
        eps_grid = [0.25, 0.5, Fraction(1, 3), 20]
        for base in ("", "011"):
            assert azuma_table(P, eps_grid, range(1, 10), base) == \
                azuma_table(PF, eps_grid, range(1, 10), base)

    def test_integer_count_allocates_no_float_temporaries(self):
        # two float64 copies of a 2^16 slice would take 1 MiB; the integer
        # cut makes one byte-wide mask at a time
        P = random_pm1(16, seed=1)
        tracemalloc.start()
        try:
            azuma_counts(P, 0.3, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 16

    def test_declared_depth_must_reach_largest_k(self):
        with pytest.raises(ValueError, match="need depth 12, have 10"):
            azuma_table(kahane(10), [0.3], [4, 12, 8])
        with pytest.raises(ValueError, match="need depth 11, have 10"):
            azuma_table(random_walk(10), [0.3, 0.5], [2, 9], base="01")
        with pytest.raises(ValueError, match="need depth"):
            azuma_table(random_pm1(6, seed=0), [0.3], [3, 7])
        assert azuma_table(kahane(12), [0.3], [4, 12]) == azuma_table(kahane(), [0.3], [4, 12])

    def test_first_bad_row_raises(self):
        K = kahane()
        with pytest.raises(ValueError, match="relative depth"):
            azuma_table(K, [0.3], [3, 0])
        with pytest.raises(ValueError, match="eps must be positive"):
            azuma_table(K, [0.3, 0], [3, 4])
        # eps is checked at the first row, before a later bad k
        with pytest.raises(ValueError, match="eps must be positive"):
            azuma_table(K, [0, 0.3], [3, 0])
        with pytest.raises(ValueError, match="address"):
            azuma_table(K, [0.3], [3], base="012")


class TestAzumaFit:
    def test_quarter_pattern_decay(self):
        rows = azuma_table(kahane(), [0.3, 0.5, 0.7], range(1, 21))
        fit = azuma_fit(rows)
        assert fit.points == 19  # only eps = 0.3, k = 2..20 yield exceedances
        assert 1.8 < fit.gamma < 2.0
        assert 1.9 < fit.c < 2.1

    def test_fitted_bound_envelopes_every_row(self):
        rows = azuma_table(kahane(), [0.3, 0.5, 0.7], range(1, 21))
        fit = azuma_fit(rows)
        for r in rows:
            assert r.count <= fit.bound(r.eps, r.k) * (1 + 1e-9)

    def test_random_pm1_instances_decay(self):
        for seed in range(20):
            M = random_pm1(12, seed=seed)
            rows = azuma_table(M, [0.25, 0.5], [4, 8, 12])
            fit = azuma_fit(rows)
            assert fit.gamma > 0.05
            assert all(r.count <= fit.bound(r.eps, r.k) * (1 + 1e-9) for r in rows)

    def test_fit_needs_two_distinct_rows(self):
        rows = azuma_table(kahane(), [0.5], [4, 8])  # all zero counts
        with pytest.raises(ValueError, match="two distinct positive rows"):
            azuma_fit(rows)


class TestPointSeq:
    def test_anchor_geometry(self):
        assert anchor_point("000") == (Fraction(1, 8), Fraction(1, 16))
        assert SeqEntry("000").mass == Fraction(1, 8) * Fraction(15, 8)
        _, shifted = anchor_point("11", Fraction(1, 3))
        assert shifted == Fraction(1, 3) + Fraction(7, 8) - 1

    def test_anchor_matches_tree_node_point(self):
        # same convention as the dyadic geometry: modulus 1 - 2^{-k},
        # central angle of the interval
        for address in ("0", "10", "0110"):
            gap, angle = anchor_point(address)
            node = GridNode(0, len(address), int(address, 2))
            assert gap == node.length  # modulus 1 - |I|
            assert angle == node.left + node.length / 2

    def test_duplicates_raise(self):
        with pytest.raises(ValueError, match=r"duplicate addresses .*\['01'\]"):
            PointSeq(["01", "01", "1"])
        with pytest.raises(ValueError, match="duplicate addresses"):
            PointSeq.from_json({"entries": [{"address": "1"}, {"address": "1"}]})

    def test_json_round_trip(self):
        seq = PointSeq([SeqEntry("0", 1), SeqEntry("0110", 2)],
                       grid_theta=Fraction(1, 7))
        back = PointSeq.from_json(seq.to_json())
        assert seq_anchors(back) == seq_anchors(seq)
        assert [e.generation for e in back] == [1, 2]
        assert back.grid_theta == Fraction(1, 7)

    @given(addrs=st.lists(addresses, unique=True, min_size=1, max_size=8),
           theta=st.integers(0, 127))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_anchors(self, addrs, theta):
        seq = PointSeq(addrs, grid_theta=Fraction(theta, 128))
        back = PointSeq.from_json(seq.to_json())
        assert seq_anchors(back) == seq_anchors(seq)

    def test_generation_spans(self):
        seq = radial_chain(4)
        spans = seq.generation_spans()
        assert sorted(spans) == [1, 2, 3, 4]
        assert all(len(v) == 1 for v in spans.values())


class TestCarleson:
    def test_single_point_from_origin(self):
        # the origin sees exactly the invariant mass 1 - |z|^2
        seq = PointSeq(["0"])
        assert carleson_sum_at(seq, "") == 0.75

    def test_chain_origin_sum_closed_form(self):
        chain = radial_chain(12)
        exact = sum(Fraction(1, 1 << j) * (2 - Fraction(1, 1 << j))
                    for j in range(1, 13))
        assert exact == 2 * (1 - Fraction(1, 4096)) - Fraction(1, 3) * (1 - Fraction(1, 4 ** 12))
        assert carleson_sum_at(chain, "") == pytest.approx(float(exact), rel=1e-13)

    def test_pair_mass_against_complex_arithmetic(self):
        # shallow anchors: the stable gap/angle route must agree with the
        # naive formula
        chain = radial_chain(10)
        anchors = seq_anchors(chain)
        for e, (gap, angle) in zip(chain, anchors):
            stable = carleson_sum_at(chain, e.address)
            naive = sum(naive_pair_mass(gap, angle, g2, a2) for g2, a2 in anchors)
            assert stable == pytest.approx(naive, rel=1e-10)

    def test_chain_sup_location_and_size(self):
        rep = carleson_sup(radial_chain(12))
        assert rep.argmax == "000"
        assert rep.sup == pytest.approx(2.3826374323855912, rel=1e-9)
        assert rep.box_argmax == "000000"
        exact_box = max(
            (1 << n) * sum(Fraction(1, 1 << j) * (2 - Fraction(1, 1 << j))
                           for j in range(n, 13))
            for n in range(13))
        assert rep.box_sup == pytest.approx(float(exact_box), rel=1e-12)

    def test_deep_anchors_stay_finite(self):
        # moduli this close to 1 collapse in naive complex arithmetic;
        # the gap/angle route keeps the invariant mass positive and the
        # decay in angular separation monotone
        sums = []
        for steps in range(1, 5):
            seq = PointSeq([format(steps, "055b")])  # level 55, `steps` cells along
            val = carleson_sum_at(seq, "0" * 55)
            assert 0.0 < val < 1.0
            sums.append(val)
        assert sums == sorted(sums, reverse=True)

    def test_probes_are_the_sequence_prefixes(self):
        chain = radial_chain(6)
        rep = carleson_sup(chain)
        assert rep.probe_count == len(default_probe_addresses(chain)) == 7
        assert rep.sup == carleson_sum_at(chain, rep.argmax)


class TestTrace:
    def test_constant_martingale_ignores_lambda(self):
        chain = radial_chain(10)
        M = DyadicMartingale("materialized",
                             levels=[np.full(1 << n, 0.25) for n in range(11)])
        low = trace_sup_i(chain, M, 0.0)
        high = trace_sup_i(chain, M, 0.9)
        assert low["sup"] == high["sup"]
        assert high["sup"] <= carleson_sup(chain).sup + 1e-12

    def test_monotone_in_lambda(self):
        chain = radial_chain(12)
        K = kahane()
        sups = [trace_sup_i(chain, K, lam)["sup"] for lam in (0.0, 0.02, 0.05, 0.1)]
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))

    def test_chain_trace_finite_and_located(self):
        out = trace_sup_i(radial_chain(12), kahane(), 0.05)
        assert out["finite"]
        assert out["sup"] == pytest.approx(2.3920911057223115, rel=1e-9)
        assert out["argmax_probe"] == "000"
        assert out["sup"] == pytest.approx(max(out["by_radius"]), rel=1e-12)

    def test_weak_l1_single_point(self):
        out = trace_weak_l1(PointSeq(["0"]), kahane(), 0.7)
        assert out["weak_l1"] == 0.75
        assert out["strong_sum"] == 0.75
        assert out["count"] == 1 and out["excluded_collisions"] == 0

    def test_weak_l1_chain(self):
        out = trace_weak_l1(radial_chain(12), kahane(), 0.05)
        assert out["finite"]
        assert out["weak_l1"] == pytest.approx(0.9295558451307657, rel=1e-9)
        assert out["weak_l1"] <= out["strong_sum"]

    def test_collision_with_probe_is_excluded(self):
        out = trace_weak_l1(radial_chain(12), kahane(), 0.05, probe="0")
        assert out["excluded_collisions"] == 1
        assert out["count"] == 11


def spread_addresses(rng, count, extra=0):
    """`count` addresses below distinct level-7 nodes, each followed by
    extra + (i % 5) random digits, like the benchmark's trace sequences."""
    tops = rng.choice(128, size=count, replace=False)
    return sorted(format(int(top), "07b")
                  + "".join("01"[b] for b in rng.integers(0, 2, extra + i % 5))
                  for i, top in enumerate(tops))


def kernel_arrays(probes, anchors):
    """The pair kernel's row blocks assembled into (probes, anchors) arrays."""
    rho2 = np.empty((len(probes), len(anchors)))
    inv = np.empty_like(rho2)
    for start, r, m in martingales._pair_blocks(probes, anchors):
        rho2[start:start + len(r)] = r
        inv[start:start + len(m)] = m
    return rho2, inv


def assert_sums_equal_plain_loop_oracle(seed, grid_theta, extra):
    """carleson_sup, trace_sup_i and trace_weak_l1 on 12 spread addresses
    equal their pair-by-pair oracles exactly."""
    seq = PointSeq(spread_addresses(np.random.default_rng(seed), 12, extra),
                   grid_theta=grid_theta)
    K = kahane()
    rep = carleson_sup(seq)
    assert (rep.sup, rep.argmax, rep.box_sup, rep.box_argmax) == brute_carleson_sup(seq)
    for lam in (0.05, 0.7):
        out = trace_sup_i(seq, K, lam)
        assert {k: out[k] for k in ("sup", "argmax_probe", "argmax_r_level",
                                    "by_radius")} == brute_trace_sup_i(seq, K, lam)
        for probe in ("", seq.entries[3].address, seq.entries[3].address[:4]):
            weak = trace_weak_l1(seq, K, lam, probe=probe)
            got = (weak["weak_l1"], weak["strong_sum"], weak["count"],
                   weak["excluded_collisions"])
            assert got == brute_trace_weak_l1(seq, K, lam, probe)


class TestPairKernel:
    @pytest.mark.parametrize("seed, grid_theta, count, extra", [
        (1, Fraction(0), 24, 0),
        (2, Fraction(3, 7), 24, 0),
        # anchors at levels 47-51: L = 2^52, the deepest int64 angles
        (3, Fraction(3, 7), 10, 40),
        # anchors at levels 72-76: L = 2^77, Python int angles
        (4, Fraction(0), 10, 65),
        (5, Fraction(3, 7), 10, 65),
    ])
    def test_pairs_bitwise_equal_scalar_formula(self, monkeypatch, seed, grid_theta,
                                                count, extra):
        monkeypatch.setattr(martingales, "_BLOCK_PAIRS", 200)  # many row blocks
        addresses = spread_addresses(np.random.default_rng(seed), count, extra)
        seq = PointSeq(addresses, grid_theta=grid_theta)
        probes = default_probe_addresses(seq)
        # the oracle sees the exact points, grid offset included; the
        # kernel sees the addresses alone
        want = [[brute_pair_invariants(*anchor_point(a, grid_theta), dq, tq)
                 for dq, tq in seq_anchors(seq)] for a in probes]
        rho2, inv = kernel_arrays(probes, addresses)
        assert np.array_equal(rho2, np.array([[r for r, _ in row] for row in want]))
        assert np.array_equal(inv, np.array([[m for _, m in row] for row in want]))

    @pytest.mark.parametrize("seed, grid_theta, extra", [
        (6, Fraction(0), 0), (7, Fraction(3, 7), 0), (8, Fraction(3, 7), 50),
    ])
    def test_sums_equal_plain_loop_oracle(self, seed, grid_theta, extra):
        assert_sums_equal_plain_loop_oracle(seed, grid_theta, extra)

    @pytest.mark.parametrize("seed, grid_theta, extra", [
        (10, Fraction(0), 0), (11, Fraction(3, 7), 50),
    ])
    def test_sums_over_many_blocks_equal_plain_loop_oracle(self, monkeypatch, seed,
                                                           grid_theta, extra):
        # five probe rows per block: each probe is read back at start + i
        monkeypatch.setattr(martingales, "_BLOCK_PAIRS", 64)
        assert_sums_equal_plain_loop_oracle(seed, grid_theta, extra)

    def test_underflow_names_the_level(self):
        # the anchor's own probe: (2 d - d^2)^2 underflows below 2^-1074
        assert math.isfinite(carleson_sup(PointSeq(["0" * 538])).sup)
        with pytest.raises(ValueError, match="level 539"):
            carleson_sup(PointSeq(["0" * 539]))
        with pytest.raises(ValueError, match="level 539"):
            trace_sup_i(PointSeq(["1" * 539]), kahane(), 0.05)


class TestBuilder:
    def test_desk_thresholds(self):
        s = threshold_sequence(4)
        assert s == [2 * j * math.log(j + 1) for j in (1, 2, 3, 4)]
        assert threshold_sequence(3, scale=0.5)[0] == pytest.approx(0.5 * math.log(2))

    def test_default_scale_first_generation_frozen(self):
        result = counterexample_build()
        gen1 = result.generations[0]
        assert gen1.complete
        assert sorted(e.address for e in result.seq) == ["0000", "0011", "1100"]
        assert gen1.mass == float(3 * Fraction(31, 256))
        # the single parent is the root; its record carries the window
        root = gen1.parents[0]
        assert root.address == "" and root.value == 0
        assert root.window == float(Fraction(93, 256))
        assert all(kahane().value(e.address) == 2 for e in result.seq)

    def test_default_scale_stalls_honestly_at_generation_two(self):
        # the level-4 parents keep only ~12% of their mass in crossings
        # within the depth budget, short of the quarter window
        result = counterexample_build()
        assert result.completed_generations == 1
        assert not result.complete
        assert len(result.generations) == 2
        gen2 = result.generations[1]
        assert not gen2.complete
        for p in gen2.parents:
            assert "falls short of the quarter window" in p.note
            assert p.candidate_mass < p.mass / 4
        # only completed generations reach the sequence
        assert {e.generation for e in result.seq} == {1}

    def test_gentle_scale_completes_four_generations(self):
        result = counterexample_build(scale=0.7)
        assert result.complete
        assert result.completed_generations == 4
        assert len(result.seq) == 22
        spans = result.seq.generation_spans()
        assert [len(spans[j]) for j in (1, 2, 3, 4)] == [1, 1, 4, 16]
        assert sorted({e.level for e in result.seq}) == [2, 4, 8, 12]
        assert weak_separation_ok(result.seq)

    def test_gentle_scale_windows_exact(self):
        result = counterexample_build(scale=0.7)
        expected = {1: Fraction(7, 16), 2: Fraction(31, 112),
                    3: Fraction(511, 1984), 4: Fraction(8191, 32704)}
        for gen in result.generations:
            for p in gen.parents:
                assert p.window == float(expected[gen.index])
                assert 0.25 <= p.window <= 0.5

    def test_generation_mass_floors(self):
        result = counterexample_build(scale=0.7)
        for gen in result.generations:
            assert gen.mass >= 4.0 ** -gen.index

    def test_selected_nodes_first_cross_their_threshold(self):
        result = counterexample_build(scale=0.7)
        K = kahane()
        by_gen = result.seq.generation_spans()
        parents = {1: [""]}
        for j in (2, 3, 4):
            parents[j] = [result.seq.entries[i].address for i in by_gen[j - 1]]
        for j, idxs in by_gen.items():
            s = result.thresholds[j - 1]
            for i in idxs:
                address = result.seq.entries[i].address
                parent = next(p for p in parents[j] if address.startswith(p))
                # crossing happens exactly at the node's own level
                for k in range(len(parent) + 2, len(address), 2):
                    v = K.value(address[:k])
                    assert v * v < s * log_inv_mass(k)
                v = K.value(address)
                assert v * v >= s * log_inv_mass(len(address))

    def test_deterministic(self):
        a = counterexample_build(scale=0.7).report()
        b = counterexample_build(scale=0.7).report()
        assert a == b

    def test_node_budget_reported(self):
        result = counterexample_build(scale=0.7, node_budget=2)
        assert not result.complete
        stalled = result.generations[-1]
        assert any("node budget exhausted" in p.note for p in stalled.parents)

    @pytest.mark.parametrize("config", [{"scale": 0.7}, {"depth_budget": 600}])
    def test_parents_match_fraction_oracle(self, config):
        result = counterexample_build(**config)
        assert [g.parents for g in result.generations] == fraction_build_parents(**config)

    @pytest.mark.parametrize("budget", [60, 600, 3000])
    @pytest.mark.parametrize("value0", [0, 3, -2])
    @pytest.mark.parametrize("k0", [0, 4, 6])
    def test_crossing_walk_matches_dict_oracle(self, k0, value0, budget):
        for s in (threshold_sequence(4)[0], threshold_sequence(4, scale=0.7)[2]):
            got = martingales._crossing_classes(k0, value0, s, budget)
            assert got == dict_crossing_classes(k0, value0, s, budget)

    @pytest.mark.parametrize("k0, value0, first", [
        (0, 5, [6, 4]), (0, -5, [-4, -6]),  # both values cross at once
        (0, 1, [2]), (4, 2, [3]), (6, -3, [-4]),  # one end crosses at once
    ])
    def test_crossing_walk_first_step_crossings(self, k0, value0, first):
        for s in (2 * math.log(2.0), 2.0):
            got = martingales._crossing_classes(k0, value0, s, 60)
            assert got == dict_crossing_classes(k0, value0, s, 60)
            assert [v for k, v, _ in got[0] if k == k0 + 2] == first
            assert (got[1] == 0) == (len(first) == 2)

    def test_one_crossing_walk_per_parent_class(self, monkeypatch):
        calls = []
        walk = martingales._crossing_classes

        def counted(k0, value0, s, depth_budget):
            calls.append((s, k0, value0))
            return walk(k0, value0, s, depth_budget)

        monkeypatch.setattr(martingales, "_crossing_classes", counted)
        result = counterexample_build(scale=0.7)
        parents = [(g.threshold, len(p.address), p.value)
                   for g in result.generations for p in g.parents]
        # the root, then the 1 + 1 + 4 nodes of generations 1 to 3
        assert len(parents) == 7
        assert sorted(calls) == sorted(set(parents))
        assert len(calls) < len(parents)

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            counterexample_build(depth_budget=7)
        with pytest.raises(ValueError, match="increase"):
            counterexample_build(thresholds=[2.0, 1.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="at least one generation"):
            counterexample_build(generations=0)
        with pytest.raises(ValueError, match="4 thresholds"):
            counterexample_build(thresholds=[1.0, 2.0])

    def test_report_shape(self):
        rep = counterexample_build(scale=0.7).report()
        assert rep["complete"] and rep["completed_generations"] == 4
        assert len(rep["generations"]) == 4
        assert len(rep["sequence"]["entries"]) == 22
        assert set(rep["generations"][0]["parents"][0]) >= {
            "address", "value", "mass", "candidate_mass", "window", "complete"}


@pytest.fixture(scope="module")
def built():
    return counterexample_build(scale=0.7)


class TestDivergence:

    def test_terms_are_mass_times_exponential(self, built):
        out = divergence_terms(built.seq, kahane(), 0.5, built.thresholds)
        spans = built.seq.generation_spans()
        for row in out["rows"]:
            mass = sum(float(built.seq.entries[i].mass) for i in spans[row["generation"]])
            assert row["mass"] == pytest.approx(mass, rel=1e-12)
            assert row["t"] == pytest.approx(math.exp(0.5 * row["threshold"]) * mass, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_geometric_envelope_holds(self, built, lam):
        out = divergence_terms(built.seq, kahane(), lam, built.thresholds)
        for row in out["rows"]:
            assert row["t"] >= row["envelope"]
            assert row["envelope"] == pytest.approx(
                math.exp(lam * row["threshold"]) * 4.0 ** -row["generation"], rel=1e-12)

    def test_lambda_zero_telescopes(self, built):
        out = divergence_terms(built.seq, kahane(), 0.0, built.thresholds)
        for row in out["rows"]:
            assert row["t"] <= 2.0 ** -row["generation"]

    def test_strong_sums_outrun_carleson_level(self, built):
        # with the exponent turned up the running strong sums pass any
        # fixed multiple of the Carleson sup while the weak trace stays put
        ceiling = 10 * carleson_sup(built.seq).sup
        out = divergence_terms(built.seq, kahane(), 2.0, built.thresholds)
        assert out["finite"]
        assert out["rows"][-1]["partial_actual"] > ceiling
        weak = trace_weak_l1(built.seq, kahane(), 0.05)
        assert weak["finite"]
        assert weak["weak_l1"] < ceiling

    def test_threshold_validation(self, built):
        with pytest.raises(ValueError, match="one threshold per generation"):
            divergence_terms(built.seq, kahane(), 1.0, built.thresholds[:3])
