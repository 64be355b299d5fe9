"""Factorization engine: norm bounds, fixed point, B_1 splitting."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from discweights.weights import (
    TreeWeight,
    b1_constant,
    bp_constant,
    cell_areas,
    maximal_values,
    random_domain,
    random_log_walk,
)
from discweights.factorization import (
    factor_bho_full,
    factor_bho_full_many,
    maximal_norm_bound,
    op_s,
    rdf_factor,
    rdf_factor_many,
    s_norm_bound,
    weighted_maximal,
    weighted_maximal_norm_bound,
)


class TestNormBounds:
    def test_lerner_bound_example(self):
        assert maximal_norm_bound(2.0, 1.0) == pytest.approx(8.0, abs=1e-14)

    def test_s_norm_for_unit_weight(self):
        w = TreeWeight.constant(1.0, 6)
        # both maximal norms equal 8 at p = 2, bracket 1
        assert s_norm_bound(w, 2.0) == pytest.approx(16.0, abs=1e-12)

    def test_doob_route_weighted_maximal(self):
        # ||M_w f||_{L^p(w)} <= 2 (p/(p-1))^{1/p} ||f||_{L^p(w)}
        rng = np.random.default_rng(31)
        for _ in range(15):
            w = random_log_walk(6, rng=rng, sigma=1.0)
            f = np.abs(rng.normal(size=1 << 7)) ** rng.uniform(0.5, 3)
            f[0] = 0.0
            m = weighted_maximal(f, w)
            areas = cell_areas(6)
            for p in (1.5, 2.0, 4.0):
                num = np.sum(m[1:] ** p * w.values[1:] * areas[1:]) ** (1 / p)
                den = np.sum(f[1:] ** p * w.values[1:] * areas[1:]) ** (1 / p)
                assert num <= weighted_maximal_norm_bound(p) * den * (1 + 1e-12)

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
            assert res.tail_ratio <= 2.0 ** -50  # sixty terms at ratio <= 1/2
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


def assert_same_factorization(a, b):
    """Two FactorizationResults agree bitwise in every field."""
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.w1.values, b.w1.values)
    assert np.array_equal(a.w2.values, b.w2.values)
    assert (a.s_norm, a.escalations, a.tail_ratio, a.reconstruction_error, a.via_dual) == \
           (b.s_norm, b.escalations, b.tail_ratio, b.reconstruction_error, b.via_dual)
    assert [c.as_dict() for c in a.certificates] == [c.as_dict() for c in b.certificates]


class TestStacked:
    """The _many entry points: each row equals the one-tree call bitwise."""

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_rdf_factor_many_rows_match_single(self, p):
        rng = np.random.default_rng(41)
        ws, doms = [], []
        for i in range(5):
            theta = F(2 * i + 1, 10)
            ws.append(random_log_walk(6, rng=rng, sigma=0.6, theta=theta))
            doms.append(None if i == 4 else
                        random_domain(6, rng=rng, density=0.6, theta=theta))
        s_norms = [s_norm_bound(w, p, "full", om) for w, om in zip(ws, doms)]
        s_norms[1] /= 64.0    # this row escalates, the others settle at once
        many = rdf_factor_many(ws, p, s_norms, doms)
        assert many[1].escalations >= 1
        assert [r.escalations for i, r in enumerate(many) if i != 1] == [0] * 4
        for w, om, s, res in zip(ws, doms, s_norms, many):
            assert_same_factorization(res, rdf_factor(w, p, s, om))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_factor_bho_full_many_rows_match_single(self, p):
        rng = np.random.default_rng(42)
        ws = [random_log_walk(6, rng=rng, sigma=0.6, theta=F(i, 4)) for i in range(4)]
        for w, res in zip(ws, factor_bho_full_many(ws, p)):
            assert_same_factorization(res, factor_bho_full(w, p))

    def test_mixed_depths_are_refused(self):
        ws = [TreeWeight.constant(1.0, 4), TreeWeight.constant(1.0, 5)]
        with pytest.raises(ValueError, match="one depth"):
            rdf_factor_many(ws, 2.0, [10.0, 10.0])
