"""Extension engine: power-maximal lemma, B_1 and B_p extensions."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from discweights import extension, factorization, weights
from discweights.extension import (
    extend_b1,
    extend_bp,
    power_maximal_b1,
)
from discweights.weights import (
    TreeWeight,
    b1_constant,
    bp_constant,
    maximal_values,
    osc_constants,
    random_domain,
    random_log_walk,
)

from helpers import brute_maximal, from_generators, from_node_values, node_id


def b1_instance(seed, depth=7):
    rng = np.random.default_rng(seed)
    w = random_log_walk(depth, rng=rng, sigma=0.7)
    om = random_domain(depth, rng=rng, density=0.5)
    return w, om


class TestPowerMaximal:
    def test_bound_is_exact_no_tolerance(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            w = random_log_walk(7, rng=rng, sigma=1.5)
            for gamma in (0.25, 0.5, 0.75):
                _, cert = power_maximal_b1(w, gamma)
                assert cert.measured <= cert.bound  # strict, no epsilon
                assert cert.bound == (2 - gamma) / (1 - gamma)

    def test_restricted_variant(self):
        w, om = b1_instance(51)
        for gamma in (0.25, 0.75):
            v, cert = power_maximal_b1(w, gamma, om)
            assert cert.measured <= cert.bound

    def test_gamma_range_enforced(self):
        w = TreeWeight.constant(1.0, 3)
        for gamma in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                power_maximal_b1(w, gamma)


class TestExtendB1:
    def test_small_instance_against_brute_force(self):
        w = from_node_values(
            0, 2, [((0, 0), 2.0), ((1, 0), 1.0), ((1, 1), 4.0),
                   ((2, 0), 0.5), ((2, 3), 8.0)]
        )
        om = from_generators(0, 2, [(1, 0), (2, 3)])
        res = extend_b1(w.power(0.5), q=2.0, domain=om)
        # off-domain values are the maximal of (w^0.5)^2 chi to the 1/2
        ref = brute_maximal(w, om)  # w == (w^0.5)^2
        for k, j in [(0, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
            assert res.weight.values[node_id(k, j)] == pytest.approx(
                math.sqrt(ref[(k, j)]), rel=1e-12
            )
        for k, j in [(1, 0), (2, 3)]:
            assert res.weight.values[node_id(k, j)] == math.sqrt(w.values[node_id(k, j)])

    def test_certificates_on_random_instances(self):
        for seed in range(15):
            w, om = b1_instance(seed)
            res = extend_b1(w, q=2.0, domain=om)
            bad = [c.as_dict() for c in res.certificates if not c.passed]
            assert res.ok, bad

    def test_agreement_is_bitwise(self):
        w, om = b1_instance(77)
        res = extend_b1(w, q=2.0, domain=om)
        assert np.array_equal(res.weight.values[om.mask], w.values[om.mask])

    def test_quotient_window(self):
        for seed in (3, 8, 21):
            w, om = b1_instance(seed)
            res = extend_b1(w, q=2.0, domain=om)
            assert res.diagnostics["k_max"] <= 4.0  # own-cell average bound
            assert res.diagnostics["k_min"] >= 1.0 / res.diagnostics["restricted_b1_of_wq"]

    def test_other_powers(self):
        w, om = b1_instance(12)
        for q in (1.5, 3.0):
            res = extend_b1(w, q=q, domain=om)
            assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]


class TestExtendBp:
    def test_p_two_certificates(self):
        for seed in range(12):
            w, om = b1_instance(seed + 100)
            res = extend_bp(w, p=2.0, q=2.0, domain=om)
            bad = [c.as_dict() for c in res.certificates if not c.passed]
            assert res.ok, bad
            assert np.array_equal(res.weight.values[om.mask], w.values[om.mask])

    def test_bp_of_extension_under_m1(self):
        w, om = b1_instance(200)
        res = extend_bp(w, p=2.0, q=2.0, domain=om)
        assert bp_constant(res.weight, 2.0) <= res.diagnostics["m1_bound"]
        assert osc_constants(res.weight).l_const <= res.diagnostics["m2_bound"]

    def test_fractional_p(self):
        w, om = b1_instance(201)
        res = extend_bp(w, p=1.5, q=2.0, domain=om)
        assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]

    def test_p_above_two_via_dual(self):
        w, om = b1_instance(202)
        res = extend_bp(w, p=3.0, q=2.0, domain=om)
        assert res.via_dual
        assert res.ok, [c.as_dict() for c in res.certificates if not c.passed]
        assert np.array_equal(res.weight.values[om.mask], w.values[om.mask])

    def test_p_above_two_reports_the_extension_constants(self):
        """The dual extension's oscillation diagnostics describe V, not W."""
        w = random_log_walk(7, seed=3, sigma=0.6)
        res = extend_bp(w, 3.0, 2.0, random_domain(7, seed=4, density=0.5))
        osc = osc_constants(res.weight)
        assert res.diagnostics["c_const_extension"] == osc.c_const
        assert res.diagnostics["l_const_extension"] == osc.l_const
        assert res.diagnostics["bp_extension_measured"] == bp_constant(res.weight, 3.0)

    def test_rejects_endpoint(self):
        w, om = b1_instance(203)
        with pytest.raises(ValueError):
            extend_bp(w, p=1.0, q=2.0, domain=om)


def assert_same_extension(a, b):
    """Two ExtensionResults agree bitwise, factorization included."""
    assert np.array_equal(a.weight.values, b.weight.values)
    assert [c.as_dict() for c in a.certificates] == [c.as_dict() for c in b.certificates]
    assert sorted(a.diagnostics.items()) == sorted(b.diagnostics.items())
    assert (a.p, a.q, a.via_dual) == (b.p, b.q, b.via_dual)
    if a.p == 1:    # the B_1 route factors nothing
        assert a.factorization is None and b.factorization is None
        return
    assert np.array_equal(a.factorization.f, b.factorization.f)
    assert np.array_equal(a.factorization.w1.values, b.factorization.w1.values)
    assert np.array_equal(a.factorization.w2.values, b.factorization.w2.values)


class TestExtendBpMany:
    """The array cores _extend_bp and _extend_b1 on a stack of trees: each
    row equals the one-tree call bitwise."""

    def stack(self, seed, count=4, depth=6):
        rng = np.random.default_rng(seed)
        thetas = [F(2 * i + 1, 2 * count) for i in range(count)]
        ws = [random_log_walk(depth, rng=rng, sigma=0.7, theta=t) for t in thetas]
        doms = [random_domain(depth, rng=rng, density=0.5, theta=t) for t in thetas]
        return ws, doms

    @staticmethod
    def arrays(ws, doms):
        """The cores' (thetas, depth, values, masks) of trees and their domains."""
        return ([w.theta for w in ws], ws[0].depth, np.stack([w.values for w in ws]),
                np.stack([om.mask for om in doms]))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_rows_match_single(self, p):
        ws, doms = self.stack(60)
        ext_vals, results = extension._extend_bp(*self.arrays(ws, doms), p, 2.0, 60)
        for w, om, row, res in zip(ws, doms, ext_vals, results):
            single = extend_bp(w, p, 2.0, om)
            assert_same_extension(res, single)
            assert np.array_equal(row, single.weight.values)

    def test_single_tree_stays_one_dimensional(self, monkeypatch):
        """Every tree workspace (the maximal functions, subtree sums and the
        series all run in one) holds a 1-D buffer."""
        ndims = []
        real = weights._TreeWork

        def spy(buf, depth):
            ndims.append(np.ndim(buf))
            return real(buf, depth)

        for module in (weights, factorization):
            monkeypatch.setattr(module, "_TreeWork", spy)
        w, om = b1_instance(63, depth=5)
        extend_bp(w, 3.0, 2.0, om)
        factorization.factor_bho_full(w, 3.0)
        assert ndims and set(ndims) == {1}

    def test_row_error_names_its_offset(self):
        ws, doms = self.stack(61)
        thetas, depth, values, masks = self.arrays(ws, doms)
        values[2, 5] = np.nan
        for p in (2.0, 3.0):   # the direct and the dual route
            with pytest.raises(ValueError,
                               match=f"^offset {thetas[2]} failed: weight values must"):
                extension._extend_bp(thetas, depth, values, masks, p, 2.0, 60)

    def test_b1_rows_match_single(self):
        ws, doms = self.stack(64)
        ext_vals, results = extension._extend_b1(*self.arrays(ws, doms), 2.0)
        for w, om, row, res in zip(ws, doms, ext_vals, results):
            single = extend_b1(w, 2.0, om)
            assert_same_extension(res, single)
            assert np.array_equal(row, single.weight.values)

    def test_b1_row_error_names_its_offset(self):
        ws, doms = self.stack(65)
        thetas, depth, values, masks = self.arrays(ws, doms)
        values[1, 9] = np.inf
        with pytest.raises(ValueError, match=f"^offset {thetas[1]} failed: weight values must"):
            extension._extend_b1(thetas, depth, values, masks, 2.0)

    def test_off_grid_domain_is_refused(self):
        """A one-tree call on a domain of another grid fails before any work."""
        w, _ = b1_instance(66, depth=6)
        off = random_domain(6, seed=62, theta=F(1, 3))
        for run in (lambda: extend_bp(w, 2.0, 2.0, off), lambda: extend_b1(w, 2.0, off)):
            with pytest.raises(ValueError, match="^weight and domain live on different grids$"):
                run()
