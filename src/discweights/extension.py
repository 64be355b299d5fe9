"""Extension of restricted weights to the full tree with certified constants.

Given a weight on a union of top halves, the extensions below produce a
weight on the whole tree that agrees with the original on the domain cells
(bitwise: the original values are copied) while keeping Bekolle-Bonami and
oscillation control with explicit constants.

B_1 route: W = w on the domain, (M(w^q chi))^{1/q} off it, where M is the
dyadic maximal function and q > 1 a free power.  On the domain the quotient
k = w^q / M(w^q chi) stays inside a quantified window, off it k = 1, and
the power-of-a-maximal lemma turns the window into a B_1 bound for W.

B_p route, p in (1, 2]: the power w^{delta q}, delta = (q+1)/(2q), is
factored over the domain into B_1 pieces w1, w2 by the iteration engine;
the extension is (M w1)^{1/(delta q)} (M w2)^{(1-p)/(delta q)} off the
domain.  p > 2 extends the dual weight w^{-1/(p-1)} at the conjugate
exponent and maps back, which preserves everything at the price of raising
constants to the power p - 1.  extend_bp_many runs the B_p route for a
stack of trees (one per grid offset) with one factorization series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .factorization import FactorizationResult, rdf_factor_many, s_norm_bound
from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _per_offset,
    _plain,
    _rows,
    _stack,
    b1_constant,
    bp_constant,
    c_const,
    maximal_values,
    osc_constants,
    reverse_holder,
)

__all__ = [
    "power_maximal_b1",
    "ExtensionResult",
    "extend_b1",
    "extend_bp",
    "extend_bp_many",
    "SelfImproveReport",
    "restriction_self_improve",
]

# The quotient-window inequalities are exact identities at their extremal
# cells, so float evaluation can land a unit in the last place on either
# side; the window certificates carry this much relative slack.
_WINDOW_SLACK = 1e-9


def power_maximal_b1(w: TreeWeight, gamma: float,
                     domain: Optional[DyadicDomain] = None):
    """(M w)^gamma together with its certified B_1 constant (2-gamma)/(1-gamma).

    gamma must lie in (0, 1).  The bound is exact for the tree model, so
    the certificate carries no tolerance.
    """
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    m = maximal_values(w.values, w.depth, domain)
    v = TreeWeight(w.theta, w.depth, m ** gamma)
    cert = WeightCertificate(
        "b1_of_power_of_maximal",
        bound=(2.0 - gamma) / (1.0 - gamma),
        measured=b1_constant(v),
        inputs={"gamma": gamma},
    )
    return v, cert


@dataclass
class ExtensionResult:
    weight: TreeWeight
    p: float
    q: float
    certificates: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    factorization: Optional[FactorizationResult] = None
    via_dual: bool = False

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates)

    def report(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "via_dual": self.via_dual,
            "diagnostics": {k: _plain(v) for k, v in sorted(self.diagnostics.items())},
            "certificates": [c.as_dict() for c in self.certificates],
            "ok": self.ok,
        }


def extend_b1(w: TreeWeight, q: float, domain: DyadicDomain) -> ExtensionResult:
    """Extend a restricted B_1 weight, certifying constants of the extension.

    Pinned certificate bounds, in terms of the restricted constant
    B = [w^q]_{B_1,D,Omega} and the oscillation rate L_w of w over the
    domain:

        [W]_{B_1,D} <= ((2q-1)/(q-1)) B^{1/q} e^{3 L_w}
        L_W <= log(64 B)/q + 3 L_w

    Both hold whenever B >= 1 and L_w >= log(4)/(3q); the instance
    generators used by the certified runs keep instances inside that
    regime, and the diagnostics expose the measured quotient window for
    the tighter bookkeeping bound ((2q-1)/(q-1)) (k_max/k_min)^{1/q}.
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    if domain is None:
        raise ValueError("extend_b1 needs a proper domain")
    depth = w.depth
    mask = domain.mask

    wq = w.values ** q
    m = maximal_values(wq, depth, domain)   # maximal of w^q chi_Omega
    ext_vals = np.where(mask, w.values, m ** (1.0 / q))
    ext_vals[0] = 1.0
    big_w = TreeWeight(w.theta, depth, ext_vals)

    b1_res = b1_constant(w.power(q), domain)
    osc = osc_constants(w, domain)
    k = np.where(mask, wq / m, 1.0)
    k_on = k[mask]
    k_min, k_max = float(np.min(k_on)), float(np.max(k_on))
    k_min_g, k_max_g = min(k_min, 1.0), max(k_max, 1.0)

    osc_big = osc_constants(big_w)
    measured_b1 = b1_constant(big_w)
    front = (2.0 * q - 1.0) / (q - 1.0)
    certs = [
        WeightCertificate(
            "agreement_on_domain",
            bound=0.0,
            measured=float(np.max(np.abs(ext_vals[mask] - w.values[mask]))),
        ),
        WeightCertificate(
            "k_window_upper",
            bound=4.0 * c_const(w.power(q), domain) * (1 + _WINDOW_SLACK),
            measured=k_max, inputs={"q": q},
        ),
        WeightCertificate(
            "k_window_lower", bound=(1.0 / b1_res) * (1 - _WINDOW_SLACK),
            measured=k_min, sense="ge",
            inputs={"restricted_b1_of_wq": b1_res},
        ),
        WeightCertificate(
            "b1_of_extension",
            bound=front * b1_res ** (1.0 / q) * math.exp(3.0 * osc.l_const),
            measured=measured_b1,
            inputs={"restricted_b1_of_wq": b1_res, "l_const": osc.l_const, "q": q},
        ),
        WeightCertificate(
            "osc_rate_of_extension",
            bound=math.log(64.0 * b1_res) / q + 3.0 * osc.l_const,
            measured=osc_big.l_const,
            inputs={"restricted_b1_of_wq": b1_res, "l_const": osc.l_const, "q": q},
        ),
    ]
    diagnostics = {
        "restricted_b1_of_wq": b1_res,
        "c_const_domain": osc.c_const,
        "l_const_domain": osc.l_const,
        "k_min": k_min,
        "k_max": k_max,
        "b1_bookkeeping_bound": front * (k_max_g / k_min_g) ** (1.0 / q),
        "c_const_extension": osc_big.c_const,
        "l_const_extension": osc_big.l_const,
        "b1_extension_measured": measured_b1,
    }
    return ExtensionResult(big_w, p=1.0, q=q, certificates=certs, diagnostics=diagnostics)


def extend_bp(w: TreeWeight, p: float, q: float, domain: DyadicDomain,
              terms: int = 60) -> ExtensionResult:
    """Extend a restricted B_p weight through the factored-power route.

    Certified outputs: bitwise agreement on the domain, the per-cell
    quotient window, and two constants for the extension,

        M1 >= [W]_{B_p,D}   (product of B_1 bounds for the two factors)
        M2 >= L_W           (2 log of the oscillation bound for W)

    computed from measured constants of the factorization, so both are
    rigorous for the instance at hand.  The one-tree case of extend_bp_many.
    """
    return extend_bp_many([w], p, q, [domain], terms)[0]


def extend_bp_many(ws: Sequence[TreeWeight], p: float, q: float,
                   domains: Sequence[DyadicDomain], terms: int = 60) -> list:
    """extend_bp for several trees of one depth, each with its own domain.

    The factorization series and the maximal functions of the factors run
    once on the stack of all trees; norm bounds, powers and certificates
    are taken per tree.  Each result equals extend_bp on its tree alone
    bitwise, and a ValueError from one tree names its offset.
    """
    if p <= 1:
        raise ValueError("p must exceed 1; use extend_b1 for the endpoint")
    if q <= 1:
        raise ValueError("q must exceed 1")
    ws, domains = list(ws), list(domains)
    if p > 2:
        return _extend_bp_dual_many(ws, p, q, domains, terms)

    thetas = [w.theta for w in ws]
    depth = ws[0].depth
    delta = (q + 1.0) / (2.0 * q)
    dq = delta * q                      # (q+1)/2 > 1
    gamma = 1.0 / dq                    # in (0, 1)

    vs = _per_offset(thetas, lambda w: w.power(dq), ws)
    s_norms = _per_offset(
        thetas, lambda w, om: s_norm_bound(w, p, "restricted", om, q=q, delta=delta),
        ws, domains)
    facts = rdf_factor_many(vs, p, s_norms, domains, terms=terms)

    # the factors are zeroed off their domains, so the unrestricted maximal
    # function gives the restricted one bitwise
    mask = _stack([om.mask for om in domains])
    m1 = maximal_values(np.where(mask, _stack([f.w1.values for f in facts]), 0.0), depth)
    m2 = maximal_values(np.where(mask, _stack([f.w2.values for f in facts]), 0.0), depth)
    off = m1 ** (1.0 / dq) * m2 ** ((1.0 - p) / dq)
    ext_vals = np.where(mask, _stack([w.values for w in ws]), off)
    ext_vals.T[0] = 1.0
    k = np.where(mask, _stack([v.values for v in vs]) / (m1 * m2 ** (1.0 - p)), 1.0)

    return _per_offset(thetas, lambda *row: _bp_extension(p, q, delta, gamma, *row),
                       ws, domains, facts, _rows(ext_vals), _rows(k))


def _bp_extension(p: float, q: float, delta: float, gamma: float, w: TreeWeight,
                  domain: DyadicDomain, fact: FactorizationResult,
                  ext_vals: np.ndarray, k: np.ndarray) -> ExtensionResult:
    """One tree of extend_bp_many: the extension and its certificates."""
    mask = domain.mask
    big_w = TreeWeight(w.theta, w.depth, ext_vals)

    k_on = k[mask]
    k_min, k_max = float(np.min(k_on)), float(np.max(k_on))
    k_min_g, k_max_g = min(k_min, 1.0), max(k_max, 1.0)

    c1 = c_const(fact.w1, domain)
    c2 = c_const(fact.w2, domain)
    b1_1 = b1_constant(fact.w1, domain)
    b1_2 = b1_constant(fact.w2, domain)

    k_max_bound = 4.0 * c1 * b1_2 ** (p - 1.0)
    k_min_bound = (4.0 * c2) ** (1.0 - p) / b1_1
    window_product = 4.0 ** p * c1 * c2 ** (p - 1.0) * b1_1 * b1_2 ** (p - 1.0)
    front = (2.0 - gamma) / (1.0 - gamma)
    m1_bound = front ** p * window_product ** gamma
    cw_bound = (4.0 ** p * k_max_g / k_min_g) ** gamma
    m2_bound = 2.0 * math.log(cw_bound)

    osc_big = osc_constants(big_w)
    measured_bp = bp_constant(big_w, p)
    certs = [
        WeightCertificate(
            "agreement_on_domain", bound=0.0,
            measured=float(np.max(np.abs(ext_vals[mask] - w.values[mask]))),
        ),
        WeightCertificate(
            "k_window_upper", bound=k_max_bound * (1 + _WINDOW_SLACK), measured=k_max,
        ),
        WeightCertificate(
            "k_window_lower", bound=k_min_bound * (1 - _WINDOW_SLACK),
            measured=k_min, sense="ge",
        ),
        WeightCertificate(
            "bp_of_extension", bound=m1_bound, measured=measured_bp,
            inputs={"p": p, "q": q, "delta": delta, "window_product": window_product},
        ),
        WeightCertificate(
            "osc_rate_of_extension", bound=m2_bound, measured=osc_big.l_const,
            inputs={"k_min": k_min, "k_max": k_max},
        ),
    ]
    diagnostics = {
        "delta": delta,
        "s_norm": fact.s_norm,
        "escalations": fact.escalations,
        "b1_of_w1": b1_1,
        "b1_of_w2": b1_2,
        "c_const_w1": c1,
        "c_const_w2": c2,
        "k_min": k_min,
        "k_max": k_max,
        "m1_bound": m1_bound,
        "m2_bound": m2_bound,
        "bp_extension_measured": measured_bp,
        "l_const_extension": osc_big.l_const,
        "c_const_extension": osc_big.c_const,
    }
    return ExtensionResult(
        big_w, p=p, q=q, certificates=certs, diagnostics=diagnostics,
        factorization=fact,
    )


def _extend_bp_dual_many(ws: list, p: float, q: float, domains: list,
                         terms: int) -> list:
    """p > 2: extend w^{-1/(p-1)} at the conjugate exponent, then invert.

    If V extends the dual weight with constants (M1, M2) at p', then
    W = V^{-(p-1)} extends w with [W]_{B_p} = [V]_{B_{p'}}^{p-1} box by box
    and L_W = (p-1) L_V, so the mapped bounds stay rigorous.  The domain
    values are overwritten with w to keep the agreement bitwise.
    """
    pp = p / (p - 1.0)
    thetas = [w.theta for w in ws]
    duals = _per_offset(thetas, lambda w: w.power(-1.0 / (p - 1.0)), ws)
    results = extend_bp_many(duals, pp, q, domains, terms)
    return _per_offset(thetas, lambda w, domain, res: _invert_dual(w, p, q, domain, res),
                       ws, domains, results)


def _invert_dual(w: TreeWeight, p: float, q: float, domain: DyadicDomain,
                 res: ExtensionResult) -> ExtensionResult:
    """One tree of the p > 2 route: map the dual extension back to w."""
    mask = domain.mask
    vals = np.where(mask, w.values, res.weight.values ** (-(p - 1.0)))
    vals[0] = 1.0
    big_w = TreeWeight(w.theta, w.depth, vals)
    m1_bound = res.diagnostics["m1_bound"] ** (p - 1.0)
    m2_bound = res.diagnostics["m2_bound"] * (p - 1.0)
    osc_big = osc_constants(big_w)
    measured_bp = bp_constant(big_w, p)
    certs = [
        WeightCertificate(
            "agreement_on_domain", bound=0.0,
            measured=float(np.max(np.abs(vals[mask] - w.values[mask]))),
        ),
        WeightCertificate(
            "bp_of_extension", bound=m1_bound, measured=measured_bp,
            inputs={"p": p, "via": "dual"},
        ),
        WeightCertificate(
            "osc_rate_of_extension", bound=m2_bound, measured=osc_big.l_const,
            inputs={"via": "dual"},
        ),
    ]
    diagnostics = dict(res.diagnostics)
    diagnostics.update({"m1_bound": m1_bound, "m2_bound": m2_bound,
                        "bp_extension_measured": measured_bp,
                        "l_const_extension": osc_big.l_const,
                        "c_const_extension": osc_big.c_const})
    return ExtensionResult(
        big_w, p=p, q=q, certificates=certs, diagnostics=diagnostics,
        factorization=res.factorization, via_dual=True,
    )


@dataclass
class SelfImproveReport:
    q: Optional[float]
    threshold: float
    rh_weight: dict
    rh_dual: dict
    bracket_table: dict

    @property
    def improved(self) -> bool:
        return self.q is not None and self.q > 1


def restriction_self_improve(w: TreeWeight, p: float, domain: DyadicDomain,
                             r_grid: Optional[Sequence[float]] = None,
                             threshold: float = 2.0) -> SelfImproveReport:
    """Locate a power q > 1 with [w^q]_{B_p,D,Omega} still under control.

    Scans a reverse Holder table for w and (when p > 1) its dual partner
    w^{-1/(p-1)} over the restricted boxes and takes the largest grid
    exponent whose ratio stays at or below the documented threshold 2.
    Returns the exponent (None when even the smallest grid point fails)
    and the restricted constants [w^q]_{B_p,D,Omega} along the grid.
    """
    if r_grid is None:
        r_grid = [1.0 + k / 8 for k in range(1, 17)]
    r_grid = sorted(float(r) for r in r_grid)
    rh_w = reverse_holder(w, r_grid, domain)
    if p > 1:
        rh_d = reverse_holder(w.power(-1.0 / (p - 1.0)), r_grid, domain)
    else:
        rh_d = {r: 1.0 for r in r_grid}
    q = None
    for r in r_grid:
        if rh_w[r] <= threshold and rh_d[r] <= threshold:
            q = r
    table = {}
    for r in r_grid:
        if q is not None and r <= q:
            table[r] = bp_constant(w.power(r), p, domain)
    return SelfImproveReport(q=q, threshold=threshold, rh_weight=rh_w,
                             rh_dual=rh_d, bracket_table=table)
