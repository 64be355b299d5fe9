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
constants to the power p - 1.  Each route has one array core (_extend_b1,
_extend_bp) for one tree or a (T, 2^(N+1)) stack, one tree and domain mask
per grid offset: every power, maximal function, certificate constant and
the factorization series run once for the stack, each row equals the
one-tree call bitwise, and a row that is not positive and finite raises a
ValueError naming its offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .factorization import FactorizationResult, _rdf_factor, _s_norms
from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _b1_values,
    _bp_values,
    _c_values,
    _checked,
    _floats,
    _log_pair_sup,
    _mask,
    _tree_arrays,
    _tree_rows,
    b1_constant,
    maximal_values,
)

__all__ = [
    "power_maximal_b1",
    "ExtensionResult",
    "extend_b1",
    "extend_bp",
]

# The quotient-window inequalities are exact identities at their extremal
# cells, so float evaluation can land a unit in the last place on either
# side; the window certificates carry this much relative slack.
_WINDOW_SLACK = 1e-9


def power_maximal_b1(w: TreeWeight, gamma: float):
    """(M w)^gamma together with its certified B_1 constant (2-gamma)/(1-gamma).

    gamma must lie in (0, 1).  The bound is exact for the tree model, so
    the certificate carries no tolerance.
    """
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    m = maximal_values(w.values, w.depth)
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
    return _extend_b1(*_tree_arrays(w, domain), q)[1][0]


def _extend_b1(thetas, depth: int, values: np.ndarray, mask: np.ndarray, q: float):
    """extend_b1 on one tree or a stack, one domain mask per tree: (the
    extensions' values, one result per tree)."""
    with np.errstate(over="ignore"):  # a w^q past the float range is refused by the check
        wq = _checked(thetas, values ** q)
    # maximal of w^q chi_Omega: zeroed off the domain, as in _b1_values
    m = maximal_values(np.where(mask, wq, 0.0), depth)
    ext_vals, big, agree, c_big, l_big, measured_b1 = _extended(
        thetas, depth, np.where(mask, values, m ** (1.0 / q)), values, mask, 1.0)
    b1_res, c_wq = _floats(_b1_values(wq, mask, depth)), _floats(_c_values(wq, mask, depth))
    c_w, l_w = _floats(_c_values(values, mask, depth)), _floats(_log_pair_sup(values, mask, depth))
    k_min, k_max = _k_window(np.where(mask, wq / m, 1.0), mask)
    front = (2.0 * q - 1.0) / (q - 1.0)
    out = []
    for i, big_w in enumerate(big):
        k_min_g, k_max_g = min(k_min[i], 1.0), max(k_max[i], 1.0)
        inputs = {"restricted_b1_of_wq": b1_res[i], "l_const": l_w[i], "q": q}
        certs = [
            agree[i],
            WeightCertificate("k_window_upper", bound=4.0 * c_wq[i] * (1 + _WINDOW_SLACK),
                              measured=k_max[i], inputs={"q": q}),
            WeightCertificate("k_window_lower", bound=(1.0 / b1_res[i]) * (1 - _WINDOW_SLACK),
                              measured=k_min[i], sense="ge",
                              inputs={"restricted_b1_of_wq": b1_res[i]}),
            WeightCertificate("b1_of_extension",
                              bound=front * b1_res[i] ** (1.0 / q) * math.exp(3.0 * l_w[i]),
                              measured=measured_b1[i], inputs=dict(inputs)),
            WeightCertificate("osc_rate_of_extension",
                              bound=math.log(64.0 * b1_res[i]) / q + 3.0 * l_w[i],
                              measured=l_big[i], inputs=dict(inputs)),
        ]
        diagnostics = {
            "restricted_b1_of_wq": b1_res[i], "c_const_domain": c_w[i],
            "l_const_domain": l_w[i], "k_min": k_min[i], "k_max": k_max[i],
            "b1_bookkeeping_bound": front * (k_max_g / k_min_g if k_min_g else math.inf) ** (1.0 / q),
            "c_const_extension": c_big[i], "l_const_extension": l_big[i],
            "b1_extension_measured": measured_b1[i],
        }
        out.append(ExtensionResult(big_w, p=1.0, q=q, certificates=certs,
                                   diagnostics=diagnostics))
    return ext_vals, out


def _extended(thetas, depth: int, ext_vals: np.ndarray, values: np.ndarray,
              mask: np.ndarray, p: float):
    """The extension ext_vals of w off the domain mask, and what every route
    measures of it: (its values, slot 0 set to 1, its trees, per tree its
    certified bitwise agreement with w on the domain, then as lists its
    full-tree c_const, l_const and B_p constant, B_1 for p = 1)."""
    ext_vals[..., 0] = 1.0
    big = _tree_rows(thetas, depth, ext_vals)
    gap = np.max(np.where(mask, np.abs(ext_vals - values), -np.inf), axis=-1)
    full = _mask(None, depth)
    bp = _b1_values(ext_vals, full, depth) if p == 1 else _bp_values(ext_vals, p, full, depth)
    agree = [WeightCertificate("agreement_on_domain", bound=0.0, measured=g)
             for g in _floats(gap)]
    return (ext_vals, big, agree, _floats(_c_values(ext_vals, full, depth)),
            _floats(_log_pair_sup(ext_vals, full, depth)), _floats(bp))


def _k_window(k: np.ndarray, mask: np.ndarray):
    """Per tree, the least and the largest quotient k over its domain cells."""
    return (_floats(np.min(np.where(mask, k, np.inf), axis=-1)),
            _floats(np.max(np.where(mask, k, -np.inf), axis=-1)))


def extend_bp(w: TreeWeight, p: float, q: float, domain: DyadicDomain,
              terms: int = 60) -> ExtensionResult:
    """Extend a restricted B_p weight through the factored-power route.

    Certified outputs: bitwise agreement on the domain, the per-cell
    quotient window, and two constants for the extension,

        M1 >= [W]_{B_p,D}   (product of B_1 bounds for the two factors)
        M2 >= L_W           (2 log of the oscillation bound for W)

    computed from measured constants of the factorization, so both are
    rigorous for the instance at hand.
    """
    if p <= 1:
        raise ValueError("p must exceed 1; use extend_b1 for the endpoint")
    if q <= 1:
        raise ValueError("q must exceed 1")
    return _extend_bp(*_tree_arrays(w, domain), p, q, terms)[1][0]


def _extend_bp(thetas, depth: int, values: np.ndarray, mask: np.ndarray, p: float,
               q: float, terms: int):
    """extend_bp on one tree or a stack, one domain mask per tree: (the
    extensions' values, one result per tree)."""
    if p / (p - 1.0) == 1.0:  # the dual route would divide by p' - 1 = 0
        raise ValueError(f"exponent p = {p} is too large: its conjugate p/(p-1) rounds to 1")
    if p > 2:
        return _extend_bp_dual(thetas, depth, values, mask, p, q, terms)
    delta = (q + 1.0) / (2.0 * q)
    dq = delta * q                      # (q+1)/2 > 1
    gamma = 1.0 / dq                    # in (0, 1)

    vs = _checked(thetas, values ** dq)
    s_norms = _s_norms(thetas, values, p, "restricted", mask, depth, q=q, delta=delta)
    v1, v2, facts, (c1, c2, b1_1, b1_2) = _rdf_factor(thetas, depth, vs, mask, p, s_norms,
                                                      terms, [False] * len(thetas))

    # the factors are zeroed off their domains, so the unrestricted maximal
    # function gives the restricted one bitwise
    m1 = maximal_values(np.where(mask, v1, 0.0), depth)
    m2 = maximal_values(np.where(mask, v2, 0.0), depth)
    ext_vals = np.where(mask, values, m1 ** (1.0 / dq) * m2 ** ((1.0 - p) / dq))
    k_min, k_max = _k_window(np.where(mask, vs / (m1 * m2 ** (1.0 - p)), 1.0), mask)
    del m1, m2, vs  # not alive through the extension's constants
    ext_vals, big, agree, c_big, l_big, measured_bp = _extended(
        thetas, depth, ext_vals, values, mask, p)
    front = (2.0 - gamma) / (1.0 - gamma)
    out = []
    for i, (big_w, fact) in enumerate(zip(big, facts)):
        k_min_g, k_max_g = min(k_min[i], 1.0), max(k_max[i], 1.0)
        k_max_bound = 4.0 * c1[i] * b1_2[i] ** (p - 1.0)
        k_min_bound = (4.0 * c2[i]) ** (1.0 - p) / b1_1[i]
        window_product = 4.0 ** p * c1[i] * c2[i] ** (p - 1.0) * b1_1[i] * b1_2[i] ** (p - 1.0)
        m1_bound = front ** p * window_product ** gamma
        cw_bound = (4.0 ** p * k_max_g / k_min_g if k_min_g else math.inf) ** gamma
        m2_bound = 2.0 * math.log(cw_bound)
        certs = [
            agree[i],
            WeightCertificate("k_window_upper", bound=k_max_bound * (1 + _WINDOW_SLACK),
                              measured=k_max[i]),
            WeightCertificate("k_window_lower", bound=k_min_bound * (1 - _WINDOW_SLACK),
                              measured=k_min[i], sense="ge"),
            WeightCertificate("bp_of_extension", bound=m1_bound, measured=measured_bp[i],
                              inputs={"p": p, "q": q, "delta": delta,
                                      "window_product": window_product}),
            WeightCertificate("osc_rate_of_extension", bound=m2_bound, measured=l_big[i],
                              inputs={"k_min": k_min[i], "k_max": k_max[i]}),
        ]
        diagnostics = {
            "delta": delta, "s_norm": fact.s_norm, "escalations": fact.escalations,
            "b1_of_w1": b1_1[i], "b1_of_w2": b1_2[i], "c_const_w1": c1[i], "c_const_w2": c2[i],
            "k_min": k_min[i], "k_max": k_max[i], "m1_bound": m1_bound, "m2_bound": m2_bound,
            "bp_extension_measured": measured_bp[i], "l_const_extension": l_big[i],
            "c_const_extension": c_big[i],
        }
        out.append(ExtensionResult(
            big_w, p=p, q=q, certificates=certs, diagnostics=diagnostics,
            factorization=fact,
        ))
    return ext_vals, out


def _extend_bp_dual(thetas, depth: int, values: np.ndarray, mask: np.ndarray, p: float,
                    q: float, terms: int):
    """p > 2: extend w^{-1/(p-1)} at the conjugate exponent, then invert.

    If V extends the dual weight with constants (M1, M2) at p', then
    W = V^{-(p-1)} extends w with [W]_{B_p} = [V]_{B_{p'}}^{p-1} box by box
    and L_W = (p-1) L_V, so the mapped bounds stay rigorous.  The domain
    values are overwritten with w to keep the agreement bitwise.
    """
    duals = _checked(thetas, values ** (-1.0 / (p - 1.0)))
    dual_vals, results = _extend_bp(thetas, depth, duals, mask, p / (p - 1.0), q, terms)
    ext_vals, big, agree, c_big, l_big, measured_bp = _extended(
        thetas, depth, np.where(mask, values, dual_vals ** (-(p - 1.0))), values, mask, p)
    out = []
    for i, (big_w, res) in enumerate(zip(big, results)):
        m1_bound = res.diagnostics["m1_bound"] ** (p - 1.0)
        m2_bound = res.diagnostics["m2_bound"] * (p - 1.0)
        certs = [
            agree[i],
            WeightCertificate("bp_of_extension", bound=m1_bound, measured=measured_bp[i],
                              inputs={"p": p, "via": "dual"}),
            WeightCertificate("osc_rate_of_extension", bound=m2_bound, measured=l_big[i],
                              inputs={"via": "dual"}),
        ]
        diagnostics = dict(res.diagnostics)
        diagnostics.update({"m1_bound": m1_bound, "m2_bound": m2_bound,
                            "bp_extension_measured": measured_bp[i],
                            "l_const_extension": l_big[i],
                            "c_const_extension": c_big[i]})
        out.append(ExtensionResult(
            big_w, p=p, q=q, certificates=certs, diagnostics=diagnostics,
            factorization=res.factorization, via_dual=True,
        ))
    return ext_vals, out
