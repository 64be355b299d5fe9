"""Acceptance gate: one test per shipped guarantee, hard bounds, pinned seeds.

Every test here re-measures its quantities independently of the library's
own certificates wherever that is possible, so a regression in the
certified bounds cannot hide behind a regression in the certifier.
Budgets per criterion are reported by the terminal summary in conftest,
not asserted, so a slow machine does not turn a green run red.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from discweights.averaging import (
    avg_beta_check,
    extend_continuous,
    theta_measure_spectrum,
)
from discweights.extension import extend_b1, extend_bp, power_maximal_b1
from discweights.factorization import factor_bho_full, s_norm_bound
from discweights.fixtures import CONTINUOUS_FIXTURES, continuous_fixture
from discweights.geometry import UnitArc
from discweights.martingales import (
    azuma_fit,
    azuma_table,
    bloch_seminorm,
    carleson_sup,
    counterexample_build,
    divergence_terms,
    kahane,
    random_walk,
    trace_weak_l1,
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


def test_criterion_01_exact_constants_and_duality():
    """Unit weight has constant exactly 1; the dual-weight identity holds
    to 1e-10 on 100 random depth-8 weights."""
    ones = TreeWeight(0, 8, np.ones(1 << 9))
    for p in (1.5, 2.0, 3.0):
        assert bp_constant(ones, p) == 1.0

    rng = np.random.default_rng(101)
    for _ in range(100):
        w = random_log_walk(8, seed=int(rng.integers(1 << 31)), sigma=0.8)
        for p in (1.5, 2.0, 3.0):
            pp = p / (p - 1.0)
            direct = bp_constant(w, p) ** (1.0 / (p - 1.0))
            dual = bp_constant(w.power(-1.0 / (p - 1.0)), pp)
            assert abs(dual - direct) <= 1e-10 * max(1.0, direct)


def test_criterion_02_power_of_maximal_is_b1():
    """(M w)^gamma lands in B_1 with constant at most (2-gamma)/(1-gamma),
    no tolerance, for 100 random weights and three exponents."""
    rng = np.random.default_rng(102)
    for _ in range(100):
        w = random_log_walk(8, seed=int(rng.integers(1 << 31)), sigma=0.8)
        for gamma in (0.25, 0.5, 0.75):
            v, cert = power_maximal_b1(w, gamma)
            assert cert.bound == (2.0 - gamma) / (1.0 - gamma)
            assert b1_constant(v) <= cert.bound


def test_criterion_03_factorization_bounds():
    """Splitting 50 random B_2 weights: reconstruction to 1e-10 per cell,
    factor constants under 2x the series norm bound, factor oscillation
    under the squared-window bounds."""
    p = 2.0
    rng = np.random.default_rng(103)
    for _ in range(50):
        w = random_log_walk(8, seed=int(rng.integers(1 << 31)), sigma=0.6)
        fact = factor_bho_full(w, p)
        assert fact.escalations == 0
        s = s_norm_bound(w, p, "full")

        recon = fact.w1.values[1:] * fact.w2.values[1:] ** (1.0 - p)
        assert np.max(np.abs(recon / w.values[1:] - 1.0)) <= 1e-10
        assert b1_constant(fact.w1) <= 2.0 * s
        assert b1_constant(fact.w2) ** (p - 1.0) <= 2.0 * s

        c_w = osc_constants(w).c_const
        assert osc_constants(fact.w1).c_const <= 4.0 * c_w ** 2
        assert osc_constants(fact.w2).c_const <= (4.0 * c_w) ** (1.0 / (p - 1.0))


def test_criterion_04_extension_endpoint():
    """B_1 extension off 50 random top-half unions at q = 2: bitwise
    agreement on the region, extension constant and oscillation rate
    under the certified closed forms."""
    q = 2.0
    rng = np.random.default_rng(104)
    for _ in range(50):
        w = random_log_walk(7, seed=int(rng.integers(1 << 31)), sigma=0.7)
        om = random_domain(7, seed=int(rng.integers(1 << 31)), density=0.5)
        res = extend_b1(w, q, om)
        big = res.weight

        inner = om.mask.copy()
        inner[0] = False
        assert np.array_equal(big.values[inner], w.values[inner])

        bq = b1_constant(w.power(q), om)
        l_w = osc_constants(w, om).l_const
        assert b1_constant(big) <= ((2 * q - 1) / (q - 1)) * bq ** (1 / q) * math.exp(3 * l_w)
        assert osc_constants(big).l_const <= math.log(64.0 * bq) / q + 3.0 * l_w


def test_criterion_05_extension_factored():
    """B_2 extension on 50 random instances: agreement exact, measured
    constant under the certificate M1, oscillation rate under M2, and the
    per-cell quotient window re-derived from the factors."""
    p, q = 2.0, 2.0
    rng = np.random.default_rng(105)
    for _ in range(50):
        w = random_log_walk(8, seed=int(rng.integers(1 << 31)), sigma=0.6)
        om = random_domain(8, seed=int(rng.integers(1 << 31)), density=0.5)
        res = extend_bp(w, p, q, om)
        big = res.weight

        inner = om.mask.copy()
        inner[0] = False
        assert np.array_equal(big.values[inner], w.values[inner])

        certs = {c.quantity: c for c in res.certificates}
        assert bp_constant(big, p) <= certs["bp_of_extension"].bound
        assert osc_constants(big).l_const <= certs["osc_rate_of_extension"].bound

        dq = (q + 1.0) / 2.0
        fact = res.factorization
        m1 = maximal_values(np.where(om.mask, fact.w1.values, 0.0), w.depth)
        m2 = maximal_values(np.where(om.mask, fact.w2.values, 0.0), w.depth)
        k = (w.power(dq).values / (m1 * m2 ** (1.0 - p)))[inner]
        k_hi = 4.0 * osc_constants(fact.w1, om).c_const * b1_constant(fact.w2, om) ** (p - 1.0)
        k_lo = (4.0 * osc_constants(fact.w2, om).c_const) ** (1.0 - p) / b1_constant(fact.w1, om)
        assert np.max(k) <= k_hi * (1 + 1e-9)
        assert np.min(k) >= k_lo * (1 - 1e-9)


def test_criterion_06_offset_averaging():
    """Offset-measure spectra are exact probability vectors with the 4/2^k
    bucket decay on 1000 random arcs; the log-Minkowski margin stays under
    1e-9 on every surveyed box; the averaged-distance ratio stays under 50
    on 1000 random pairs."""
    rng = np.random.default_rng(106)
    grid = 1 << 20
    for _ in range(1000):
        arc = UnitArc(Fraction(int(rng.integers(grid)), grid),
                      Fraction(int(rng.integers(1, grid)), grid))
        spectrum = theta_measure_spectrum(arc)
        assert sum(spectrum.values()) == 1
        for k, mass in spectrum.items():
            assert mass <= Fraction(4, 1 << k)

    w, dom = continuous_fixture("pair_overlap")
    res = extend_continuous(w, 2.0, 2.0, dom, depth=6, theta_count=16,
                            family_depth=4)
    assert res.constants["log_minkowski_margin"] <= 1e-9

    pairs = [((0.01 + 0.98 * rng.random(), rng.random()),
              (0.01 + 0.98 * rng.random(), rng.random()))
             for _ in range(1000)]
    out = avg_beta_check(pairs)
    assert out["max_ratio"] <= 50.0


def test_criterion_07_continuous_pipeline():
    """The full pipeline on the three bundled regions, both exponents and
    both offset counts 64 and 128: per-offset certificates all pass, every
    reported constant is finite, and the headline constants move under 10%
    between the offset counts.

    The pointwise sup of |log w - log W| is asserted finite and within a
    factor-2 band across offset counts, not within 10%: it is attained on
    cells straddling the region's angular edges at their own scale, where
    the attained value genuinely depends on how the offset grid slices the
    edge (measured 24% movement on one fixture), while the averaged
    constants converge.
    """
    for name in CONTINUOUS_FIXTURES:
        w, dom = continuous_fixture(name)
        for p in (1.0, 2.0):
            key = "continuous_b1" if p == 1.0 else "continuous_bp"
            by_count = {}
            for tc in (64, 128):
                res = extend_continuous(w, p, 2.0, dom, depth=6,
                                        theta_count=tc, family_depth=4)
                assert res.ok, (name, p, tc)
                c = res.constants
                assert math.isfinite(c[key]) and c[key] > 0, (name, p, tc)
                assert math.isfinite(c["log_gap_sup"]), (name, p, tc)
                assert math.isfinite(c["log_minkowski_margin"])
                by_count[tc] = c
            drift = abs(by_count[128][key] - by_count[64][key]) / by_count[64][key]
            assert drift < 0.10, (name, p, drift)
            gaps = sorted(by_count[tc]["log_gap_sup"] for tc in (64, 128))
            assert gaps[1] < 2.0 * gaps[0], (name, p, gaps)


def test_criterion_08_martingale_evaluators():
    """Quarter-pattern levels 1-4 frozen, its seminorm at most 2 through
    depth 14, the walk's adjacent-interval values +-(k-2), and the
    midpoint law checked exhaustively at depth 10."""
    K = kahane()
    assert K.level_values(1).tolist() == [0.0, 0.0]
    assert K.level_values(2).tolist() == [1.0, -1.0, -1.0, 1.0]
    assert K.level_values(3).tolist() == [1.0, 1.0, -1.0, -1.0,
                                          -1.0, -1.0, 1.0, 1.0]
    assert K.level_values(4).tolist() == [2.0, 0.0, 0.0, 2.0,
                                          0.0, -2.0, -2.0, 0.0,
                                          0.0, -2.0, -2.0, 0.0,
                                          2.0, 0.0, 0.0, 2.0]
    for depth in range(2, 15):
        assert bloch_seminorm(K, depth) <= 2.0

    W = random_walk()
    for k in range(2, 13):
        assert W.value("0" + "1" * (k - 1)) == k - 2
        assert W.value("1" + "0" * (k - 1)) == -(k - 2)

    for n in range(10):
        vals = K.level_values(n + 1)
        parents = K.level_values(n)
        assert np.array_equal(parents, (vals[0::2] + vals[1::2]) / 2.0)


def test_criterion_09_deviation_count_decay():
    """Exact deviation counts for the quarter pattern fit an exponential
    decay with rate at least 0.05 and constant at most 10."""
    K = kahane()
    rows = azuma_table(K, [0.3, 0.5, 0.7], range(1, 21))
    fit = azuma_fit(rows)
    assert fit.gamma >= 0.05
    assert fit.c <= 10.0

    by_key = {(r.eps, r.k): r.count for r in rows}
    for k in (4, 10, 16, 20):
        m = k // 2
        expected = (1 << (k - m)) * sum(
            math.comb(m, j) for j in range(m + 1)
            if abs(Fraction(2 * j - m)) > Fraction(3, 10) * k)
        assert by_key[(0.3, k)] == expected
    assert all(by_key[(e, k)] == 0 for e in (0.5, 0.7) for k in range(1, 21))
    for r in rows:
        if r.count:
            assert r.count <= fit.bound(r.eps, r.k) * (1 + 1e-9)


def test_criterion_10_counterexample_desk_scale():
    """Default build: four nested crossing generations inside depth 60,
    every node past its threshold, parent windows in [1/4, 1/2],
    generation masses over 4^-j, exponential terms over their envelopes,
    finite box constant, finite weak trace at small coupling, and strong
    partial sums clearing 10x the box constant by generation four.

    Clauses are checked on whatever the builder delivered, completeness
    last, so a stalled build reports exactly which generation starves and
    by how much.
    """
    build = counterexample_build()
    K = kahane()

    for j, s in enumerate(build.thresholds, start=1):
        assert s == 2.0 * j * math.log(j + 1.0)
    for e in build.seq:
        s = build.thresholds[e.generation - 1]
        log_inv = -math.log(0.5 ** e.level * (2.0 - 0.5 ** e.level))
        assert K.value(e.address) ** 2 >= s * log_inv

    for gen in build.generations:
        if not gen.complete:
            continue
        for parent in gen.parents:
            assert 0.25 <= parent.window <= 0.5
        assert gen.mass >= 4.0 ** (-gen.index)

    done = [g.index for g in build.generations if g.complete]
    if done:
        for lam in (0.5, 1.0):
            div = divergence_terms(build.seq, K, lam, build.thresholds)
            for row in div["rows"]:
                assert row["t"] >= row["envelope"] * (1 - 1e-12)
        assert math.isfinite(carleson_sup(build.seq).sup)
        assert trace_weak_l1(build.seq, K, 0.05)["finite"]

    if build.complete:
        box = carleson_sup(build.seq).sup
        div = divergence_terms(build.seq, K, 1.0, build.thresholds)
        assert div["rows"][-1]["partial_actual"] > 10.0 * box

    stalled = [
        f"generation {g.index}: parent {p.address or 'root'!r} has "
        f"candidate mass {p.candidate_mass:.4f} against a quarter window "
        f"of {p.mass / 4:.4f} ({p.note})"
        for g in build.generations if not g.complete
        for p in g.parents if not p.complete
    ]
    assert build.complete, (
        f"completed {build.completed_generations} of {build.requested} "
        f"generations within depth budget {build.depth_budget}; "
        + "; ".join(stalled))
