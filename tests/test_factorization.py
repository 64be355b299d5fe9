"""Factorization engine: norm bounds, fixed point, B_1 splitting."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from discweights import factorization, weights
from discweights.extension import extend_bp
from discweights.weights import (
    TreeWeight,
    _b1_values,
    _c_values,
    _mask,
    b1_constant,
    bp_constant,
    cell_areas,
    maximal_values,
    random_domain,
    random_log_walk,
)
from discweights.factorization import (
    factor_bho_full,
    op_s,
    rdf_factor,
    s_norm_bound,
)
from helpers import full_series, maximal_norm_bound, two_buffer_op_s


class TestNormBounds:
    def test_lerner_bound_example(self):
        assert maximal_norm_bound(2.0, 1.0) == pytest.approx(8.0, abs=1e-14)

    def test_s_norm_for_unit_weight(self):
        w = TreeWeight.constant(1.0, 6)
        # both maximal norms equal 8 at p = 2, bracket 1
        assert s_norm_bound(w, 2.0) == pytest.approx(16.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_s_norm_is_the_lerner_form(self, p):
        # the dual weight's bracket is [w]_p^{1/(p-1)} at p' = p/(p-1)
        rng = np.random.default_rng(36)
        for _ in range(5):
            w = random_log_walk(6, rng=rng, sigma=0.8)
            br = bp_constant(w, p)
            lerner = (maximal_norm_bound(p / (p - 1), br ** (1 / (p - 1)))
                      + maximal_norm_bound(p, br) ** (p - 1))
            assert s_norm_bound(w, p, "full") == pytest.approx(lerner, rel=1e-12)

    def test_weighted_maximal_refuses_off_grid_domain(self):
        w = random_log_walk(5, seed=1)
        om = random_domain(5, seed=2, theta=F(1, 3))
        with pytest.raises(ValueError, match="different grids"):
            weights.maximal(w, om)

    def test_unweighted_maximal_under_lerner_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            w = random_log_walk(6, rng=rng, sigma=0.8)
            f = np.abs(rng.normal(size=1 << 7)) + 1e-3
            f[0] = 0.0
            m = maximal_values(f, 6)
            areas = cell_areas(6)
            p = 2.0
            num = np.sum(m[1:] ** p * w.values[1:] * areas[1:]) ** (1 / p)
            den = np.sum(f[1:] ** p * w.values[1:] * areas[1:]) ** (1 / p)
            assert num <= maximal_norm_bound(p, bp_constant(w, p)) * den * (1 + 1e-12)


class TestIteration:
    def test_series_fixed_point_and_certificates(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            w = random_log_walk(7, rng=rng, sigma=0.6)
            res = rdf_factor(w, 2.0, s_norm_bound(w, 2.0))
            assert res.escalations == 0
            # a row stops once a term no longer moves f (below about 2^-53 f),
            # and the first omitted term is smaller still
            assert res.tail_ratio <= 2.0 ** -50
            assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]

    def test_fixed_point_inequality_per_cell(self):
        w = random_log_walk(6, seed=34, sigma=0.5)
        res = rdf_factor(w, 1.5, s_norm_bound(w, 1.5))
        sf = op_s(res.f, w.values, w.depth, 1.5)
        slack = res.tail_ratio * 2.0 * res.s_norm
        assert np.all(sf[1:] <= 2.0 * res.s_norm * res.f[1:] + slack + 1e-9)

    def test_reconstruction_tight(self):
        w = random_log_walk(7, seed=35, sigma=1.0)
        for p in (1.5, 2.0):
            res = rdf_factor(w, p, s_norm_bound(w, p))
            assert res.reconstruction_error <= 1e-10

    def test_restricted_domain(self):
        rng = np.random.default_rng(36)
        p, q = 2.0, 2.0
        delta = (q + 1) / (2 * q)
        for _ in range(5):
            w = random_log_walk(6, rng=rng, sigma=0.5)
            om = random_domain(6, rng=rng, density=0.6)
            v = w.power(delta * q)
            s = s_norm_bound(w, p, "restricted", om, q=q, delta=delta)
            res = rdf_factor(v, p, s, om)
            assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]
            assert b1_constant(res.w1, om) <= 2 * res.s_norm
            assert b1_constant(res.w2, om) ** (p - 1) <= 2 * res.s_norm

    def test_product_rule_exact(self):
        w = random_log_walk(6, seed=37, sigma=0.9)
        for p in (1.5, 2.0):
            res = rdf_factor(w, p, s_norm_bound(w, p))
            assert bp_constant(w, p) <= (
                b1_constant(res.w1) * b1_constant(res.w2) ** (p - 1) * (1 + 1e-12)
            )

    def test_escalation_recovers_from_low_norm(self):
        w = random_log_walk(6, seed=38, sigma=0.8)
        honest = s_norm_bound(w, 2.0)
        res = rdf_factor(w, 2.0, honest / 64.0)
        assert res.escalations >= 1
        assert res.s_norm <= honest  # doubling stops once the series settles
        assert res.reconstruction_error <= 1e-10

    def test_rejects_out_of_range_p(self):
        w = TreeWeight.constant(1.0, 4)
        with pytest.raises(ValueError):
            rdf_factor(w, 3.0, 10.0)


class TestDualRoute:
    def test_p_three_via_conjugate(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            w = random_log_walk(6, rng=rng, sigma=0.5)
            res = factor_bho_full(w, 3.0)
            assert res.via_dual
            assert res.reconstruction_error <= 1e-10
            assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]

    def test_direct_route_matches_for_small_p(self):
        w = random_log_walk(5, seed=40, sigma=0.5)
        res = factor_bho_full(w, 2.0)
        assert not res.via_dual
        assert res.reconstruction_error <= 1e-10


def assert_same_factors(a, b):
    """Two FactorizationResults agree bitwise in f, both factors and every
    certificate, whatever terms their series summed."""
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.w1.values, b.w1.values)
    assert np.array_equal(a.w2.values, b.w2.values)
    assert (a.s_norm, a.escalations, a.reconstruction_error, a.via_dual) == \
           (b.s_norm, b.escalations, b.reconstruction_error, b.via_dual)
    assert [c.as_dict() for c in a.certificates] == [c.as_dict() for c in b.certificates]


def assert_same_factorization(a, b):
    """Two FactorizationResults agree bitwise in every field."""
    assert_same_factors(a, b)
    assert (a.tail_ratio, a.terms_used) == (b.tail_ratio, b.terms_used)


class TestStacked:
    """The array cores _rdf_factor and _factor_bho_full on a stack of
    trees: each row equals the one-tree call bitwise."""

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_rdf_factor_many_rows_match_single(self, p):
        ws, doms, s_norms = stack_with_low_bound(p)
        many = rdf_stack(ws, p, s_norms, doms)
        assert many[1].escalations >= 1
        assert [r.escalations for i, r in enumerate(many) if i != 1] == [0] * 4
        for w, om, s, res in zip(ws, doms, s_norms, many):
            assert_same_factorization(res, rdf_factor(w, p, s, om))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_factor_bho_full_many_rows_match_single(self, p):
        rng = np.random.default_rng(42)
        ws = [random_log_walk(6, rng=rng, sigma=0.6, theta=F(i, 4)) for i in range(4)]
        for w, res in zip(ws, full_stack(ws, p)):
            assert_same_factorization(res, factor_bho_full(w, p))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_factor_bho_full_returns_the_factor_stacks(self, p):
        """The (w1, w2) arrays it returns hold every result's factors, which
        are views of their rows (swapped back from the dual at p = 3)."""
        rng = np.random.default_rng(45)
        ws = [random_log_walk(5, rng=rng, sigma=0.6, theta=F(i, 3)) for i in range(3)]
        w1, w2, results = factorization._factor_bho_full(
            [w.theta for w in ws], 5, np.stack([w.values for w in ws]), p, 60)
        for i, res in enumerate(results):
            for stack, tree in ((w1, res.w1), (w2, res.w2)):
                assert stack[i].tobytes() == tree.values.tobytes()
                assert np.shares_memory(stack, tree.values)


def rdf_stack(ws, p, s_norms, doms):
    """_rdf_factor on the stack of trees ws, each with its domain or None."""
    depth = ws[0].depth
    return factorization._rdf_factor(
        [w.theta for w in ws], depth, np.stack([w.values for w in ws]),
        np.stack([_mask(om, depth) for om in doms]), p, s_norms, 60,
        [om is None for om in doms])[2]


def full_stack(ws, p):
    """_factor_bho_full on the stack of trees ws."""
    return factorization._factor_bho_full([w.theta for w in ws], ws[0].depth,
                                          np.stack([w.values for w in ws]), p, 60)[2]


def with_full_series(monkeypatch, run):
    """run() with the fixed-length series of helpers.full_series."""
    with monkeypatch.context() as m:
        m.setattr(factorization, "_series", full_series)
        return run()


def stack_with_low_bound(p):
    """Five depth-6 trees, four with domains; row 1 gets 1/64 of its norm
    bound, so it escalates while the others settle at once."""
    rng = np.random.default_rng(41)
    ws, doms = [], []
    for i in range(5):
        theta = F(2 * i + 1, 10)
        ws.append(random_log_walk(6, rng=rng, sigma=0.6, theta=theta))
        doms.append(None if i == 4 else
                    random_domain(6, rng=rng, density=0.6, theta=theta))
    s_norms = [s_norm_bound(w, p, "full", om) for w, om in zip(ws, doms)]
    s_norms[1] /= 64.0
    return ws, doms, s_norms


class TestSeriesStop:
    """Each row of the series stops once its f stops moving; f, the factors
    and every certificate equal the fixed-length series bitwise."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_factor_bho_full_matches_full_series(self, monkeypatch, p):
        rng = np.random.default_rng(43)
        ws = [random_log_walk(8, rng=rng, sigma=0.6) for _ in range(3)]
        refs = [with_full_series(monkeypatch, lambda: factor_bho_full(w, p)) for w in ws]
        for w, ref, many in zip(ws, refs, full_stack(ws, p)):
            res = factor_bho_full(w, p)
            assert_same_factors(res, ref)
            assert_same_factorization(many, res)
            assert res.terms_used < ref.terms_used == 60
            assert res.tail_ratio <= 2.0 ** -50

    def test_restricted_extend_bp_matches_full_series(self, monkeypatch):
        rng = np.random.default_rng(44)
        for _ in range(3):
            w = random_log_walk(8, rng=rng, sigma=0.6)
            om = random_domain(8, rng=rng, density=0.5)
            res = extend_bp(w, 2.0, 2.0, om)
            ref = with_full_series(monkeypatch, lambda: extend_bp(w, 2.0, 2.0, om))
            assert np.array_equal(res.weight.values, ref.weight.values)
            assert [c.as_dict() for c in res.certificates] == \
                   [c.as_dict() for c in ref.certificates]
            assert sorted(res.diagnostics.items()) == sorted(ref.diagnostics.items())
            assert_same_factors(res.factorization, ref.factorization)
            assert res.factorization.terms_used < 60

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_escalating_stack_matches_full_series(self, monkeypatch, p):
        """Only the escalating row reruns; every row still equals the
        fixed-length series."""
        ws, doms, s_norms = stack_with_low_bound(p)
        refs = with_full_series(monkeypatch, lambda: rdf_stack(ws, p, s_norms, doms))
        many = rdf_stack(ws, p, s_norms, doms)
        for res, ref in zip(many, refs):
            assert_same_factors(res, ref)
        assert all(r.terms_used < 60 for r in many if not r.escalations)

    @pytest.mark.parametrize("scale", [1.0, 1.0 / 64.0])
    def test_small_terms_is_a_cap(self, monkeypatch, scale):
        """At terms = 3 no row settles early, so every field, the tail
        included, is the fixed-length series'; a low bound still escalates."""
        w = random_log_walk(8, seed=45, sigma=0.6)
        s = s_norm_bound(w, 2.0) * scale
        res = rdf_factor(w, 2.0, s, terms=3)
        assert res.terms_used <= 3
        assert_same_factorization(
            res, with_full_series(monkeypatch, lambda: rdf_factor(w, 2.0, s, terms=3)))
        assert (res.escalations >= 1) == (scale < 1.0)
        assert res.reconstruction_error <= 1e-10

    def test_overflowing_row_stays_pending(self):
        """A row whose f overflows stops (inf + inf == inf), but its tail is
        inf, so it is never taken for settled; its neighbour is unaffected."""
        rng = np.random.default_rng(46)
        ws = [random_log_walk(6, rng=rng, sigma=0.6) for _ in range(2)]
        values = np.stack([w.values for w in ws])
        mask = np.stack([_mask(None, 6)] * 2)
        s = np.array([s_norm_bound(ws[0], 2.0), 1e-300])
        with np.errstate(over="ignore"):
            f, tail, used = factorization._series(values, mask, s, 6, 2.0, 60)
            with pytest.raises(ArithmeticError, match="did not settle"):
                rdf_factor(ws[1], 2.0, 1e-300)
        assert np.isinf(f[1, 1:]).all() and not tail[1] <= 1.0 and used[1] < 60
        f0, tail0, used0 = factorization._series(values[0], mask[0], s[0, ...], 6, 2.0, 60)
        assert np.array_equal(f[0], f0) and (tail[0], used[0]) == (tail0, used0)
        assert tail0 <= 1.0

    def test_settled_rows_leave_the_stack(self, monkeypatch):
        """S runs once per term and once for the tail on each row, and on
        no row past the term where it settled."""
        rows = []
        real = factorization.op_s

        def spy(g, values, depth, p, **kwargs):
            rows.append(len(g))
            return real(g, values, depth, p, **kwargs)

        monkeypatch.setattr(factorization, "op_s", spy)
        ws = [random_log_walk(7, seed=47, sigma=sigma) for sigma in (0.2, 0.8, 2.0)]
        results = full_stack(ws, 2.0)
        assert rows[0] == 3 and min(rows) == 1
        assert len({r.terms_used for r in results}) == 3
        assert sum(rows) == sum(r.terms_used + 1 for r in results)


class TestSeriesWorkspace:
    """op_s in one tree workspace, and the series keeping one workspace per
    set of rows still moving, against the two-buffer S and the one-tree runs."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0 / 3.0, 3.0])
    def test_op_s_matches_two_buffer_formula(self, p):
        rng = np.random.default_rng(48)
        values = np.stack([random_log_walk(6, rng=rng, sigma=0.7).values for _ in range(3)])
        work = weights._TreeWork(np.empty(values.shape), 6)
        for _ in range(3):  # the workspace refilled, as in the series
            g = rng.uniform(0.0, 2.0, size=values.shape)
            g[:, rng.uniform(size=values.shape[-1]) < 0.2] = 0.0
            want = two_buffer_op_s(g, values, 6, p)
            assert op_s(g, values, 6, p, work=work).tobytes() == want.tobytes()
            assert op_s(g, values, 6, p).tobytes() == want.tobytes()
            assert op_s(g[1], values[1], 6, p).tobytes() == want[1].tobytes()

    def test_workspace_rebuilt_only_when_rows_leave(self, monkeypatch):
        """Three rows settling at three different terms: one workspace for
        the three, then one for the two left, then one for the last; every
        row still equals its one-tree series bitwise."""
        shapes = []
        real = weights._TreeWork

        def spy(buf, depth):
            shapes.append(buf.shape)
            return real(buf, depth)

        ws = [random_log_walk(7, seed=47, sigma=sigma) for sigma in (0.2, 0.8, 2.0)]
        values = np.stack([w.values for w in ws])
        mask = np.ones(values.shape, dtype=bool)
        mask[:, 0] = False
        s = np.array([s_norm_bound(w, 2.0) for w in ws])
        with monkeypatch.context() as m:
            m.setattr(factorization, "_TreeWork", spy)
            f, tail, used = factorization._series(values, mask, s, 7, 2.0, 60)
        assert len(set(used.tolist())) == 3
        assert shapes == [(3, 256), (2, 256), (1, 256)]
        for i in range(3):
            f1, tail1, used1 = factorization._series(values[i], mask[i], s[i, ...], 7, 2.0, 60)
            assert f[i].tobytes() == f1.tobytes() and (tail[i], used[i]) == (tail1, used1)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_rdf_factor_returns_the_factors_constants(self, restricted):
        """The c_const and B_1 lists _rdf_factor returns are the factors'
        own, on the mask, and the B_1 ones are what its certificates hold."""
        ws, doms, s_norms = stack_with_low_bound(2.0)
        if not restricted:
            doms = [None] * len(ws)
        depth = ws[0].depth
        mask = np.stack([_mask(om, depth) for om in doms])
        v1, v2, results, (c1, c2, b1_1, b1_2) = factorization._rdf_factor(
            [w.theta for w in ws], depth, np.stack([w.values for w in ws]), mask, 2.0,
            s_norms, 60, [om is None for om in doms])
        assert c1 == _c_values(v1, mask, depth).tolist()
        assert c2 == _c_values(v2, mask, depth).tolist()
        assert b1_1 == _b1_values(v1, mask, depth).tolist()
        assert b1_2 == _b1_values(v2, mask, depth).tolist()
        for i, res in enumerate(results):
            measured = {c.quantity: c.measured for c in res.certificates}
            assert (measured["b1_of_w1"], measured["osc_of_w1"]) == (b1_1[i], c1[i])
            assert measured["osc_of_w2"] == c2[i]
