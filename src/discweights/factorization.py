"""Factorization of B_p tree weights into a product of two B_1 weights.

The engine iterates the operator

    S(g) = M(g w) / w + M(g^{1/(p-1)})^{p-1},

with M the (possibly restricted) dyadic maximal function, and sums the
geometric series f = sum_k S^k(u) / (2 s)^k for any s at least the norm of
S.  Then M(f w) <= 2 s f w and M(f^{1/(p-1)}) <= (2 s)^{1/(p-1)} f^{1/(p-1)},
so w1 = f w and w2 = f^{1/(p-1)} are B_1 weights reconstructing
w = w1 w2^{1-p} cell by cell.

The truncated series satisfies S(f) = 2s (f - u + t), t the first omitted
term, so the fixed point inequality S(f) <= 2s f holds on the nose as soon
as t <= u pointwise; the result records max(t/u) as the tail ratio.  If the
supplied norm bound is too small for that to happen the engine doubles it
and retries, flagging the escalation.

Exponents p in (1, 2] run directly; p > 2 factors the dual weight
w^{-1/(p-1)} at the conjugate exponent and swaps the two factors back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _cell_masses,
    ancestor_max,
    b1_constant,
    bp_constant,
    maximal_values,
    osc_constants,
    subtree_sums,
)

__all__ = [
    "maximal_norm_bound",
    "weighted_maximal_norm_bound",
    "weighted_maximal",
    "restricted_maximal_norm_lp",
    "restricted_maximal_norm_dual",
    "s_norm_bound",
    "op_s",
    "FactorizationResult",
    "rdf_factor",
    "factor_bho_full",
]


# ---------------------------------------------------------------------------
# norm bounds feeding the iteration
# ---------------------------------------------------------------------------

def maximal_norm_bound(p: float, bracket: float) -> float:
    """Full-disc bound ||M||_{L^p(w)} <= 4 (p^2/(p-1))^{1/p} [w]^{1/(p-1)}."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return 4.0 * (p * p / (p - 1)) ** (1.0 / p) * bracket ** (1.0 / (p - 1))


def weighted_maximal_norm_bound(p: float) -> float:
    """||M_w||_{L^p(w)} <= 2 (p/(p-1))^{1/p}, any weight (Doob route)."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return 2.0 * (p / (p - 1)) ** (1.0 / p)


def weighted_maximal(f: np.ndarray, w: TreeWeight,
                     domain: Optional[DyadicDomain] = None) -> np.ndarray:
    """Maximal function with averages taken in the w-measure."""
    depth = w.depth
    wmass = _cell_masses(w.values, depth, domain)
    num = subtree_sums(np.abs(f) * wmass, depth)
    den = subtree_sums(wmass, depth)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(den > 0, num / den, 0.0)
    return ancestor_max(avg, depth)


def restricted_maximal_norm_lp(p: float, q: float, delta: float, bracket_wq: float) -> float:
    """||M_Omega||_{L^p(Omega, w^{delta q})} <= 2 (p/((p-1)(1-delta)))^{1/p} B^{delta/(delta p + 1 - delta)}.

    B is the restricted B_p constant of w^q; delta in (0, 1).
    """
    expo = delta / (delta * p + 1 - delta)
    return 2.0 * (p / ((p - 1) * (1 - delta))) ** (1.0 / p) * bracket_wq ** expo


def restricted_maximal_norm_dual(p: float, q: float, delta: float, bracket_wq: float) -> float:
    """||M_Omega||_{L^{p'}(Omega, w^{-delta q/(p-1)})} <= 2 (p/(1-delta))^{(p-1)/p} B^{delta/(p + delta - 1)}."""
    expo = delta / (p + delta - 1)
    return 2.0 * (p / (1 - delta)) ** ((p - 1) / p) * bracket_wq ** expo


def s_norm_bound(w: TreeWeight, p: float, mode: str = "full",
                 domain: Optional[DyadicDomain] = None,
                 q: float = None, delta: float = None) -> float:
    """Norm bound for S: dual-space maximal norm plus the L^p one to p-1.

    mode "full": both maximal norms via the full-disc bound in terms of
    [w]_{B_p,D}.  mode "restricted": the weight is w^{delta q} for a given
    pair (q, delta), and the norms come from the restricted bounds in terms
    of [w^q]_{B_p,D,Omega}; here `w` is the base weight, not its power.
    """
    if mode == "full":
        br = bp_constant(w, p, domain)
        pp = p / (p - 1)
        return (
            4.0 * (pp * pp / (pp - 1)) ** (1.0 / pp) * br
            + (4.0 * (p * p / (p - 1)) ** (1.0 / p)) ** (p - 1) * br
        )
    if mode == "restricted":
        if q is None or delta is None:
            raise ValueError("restricted mode needs q and delta")
        br = bp_constant(w.power(q), p, domain)
        return (
            restricted_maximal_norm_dual(p, q, delta, br)
            + restricted_maximal_norm_lp(p, q, delta, br) ** (p - 1)
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

def op_s(g: np.ndarray, w: TreeWeight, p: float,
         domain: Optional[DyadicDomain] = None) -> np.ndarray:
    """One application of S(g) = M(g w)/w + M(g^{1/(p-1)})^{p-1}."""
    m1 = maximal_values(g * w.values, w.depth, domain)
    m2 = maximal_values(np.abs(g) ** (1.0 / (p - 1)), w.depth, domain)
    return m1 / w.values + m2 ** (p - 1)


@dataclass
class FactorizationResult:
    w1: TreeWeight
    w2: TreeWeight
    f: np.ndarray
    p: float
    s_norm: float
    escalations: int
    tail_ratio: float
    reconstruction_error: float
    certificates: list = field(default_factory=list)
    via_dual: bool = False

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates)


def rdf_factor(w: TreeWeight, p: float, s_norm: float,
               domain: Optional[DyadicDomain] = None,
               u: Optional[np.ndarray] = None, terms: int = 60,
               max_escalations: int = 8) -> FactorizationResult:
    """Iterate S and split w into B_1 factors, certifying the usual bounds.

    Requires p in (1, 2].  s_norm should dominate the norm of S; when the
    truncated series fails its fixed point check the bound is doubled, at
    most `max_escalations` times, and the escalation count is reported.
    """
    if not (1 < p <= 2):
        raise ValueError("rdf_factor runs for p in (1, 2]; use factor_bho_full")
    depth = w.depth
    mask = domain.mask if domain is not None else np.ones(1 << (depth + 1), dtype=bool)
    mask = mask.copy()
    mask[0] = False
    if u is None:
        u = np.ones(1 << (depth + 1))
    u = np.where(mask, u, 0.0)

    escalations = -1
    s = s_norm / 2.0
    while escalations < max_escalations:
        s *= 2.0
        escalations += 1
        term = u.copy()
        f = u.copy()
        for _ in range(terms):
            term = op_s(term, w, p, domain) / (2.0 * s)
            term = np.where(mask, term, 0.0)
            f = f + term
        tail = op_s(term, w, p, domain) / (2.0 * s)
        tail_ratio = float(np.max(tail[mask] / u[mask]))
        if tail_ratio <= 1.0:
            break
    else:
        raise ArithmeticError(
            f"series did not settle after {max_escalations} doublings of the norm bound"
        )

    # off the domain the factors carry neutral value 1 (never integrated)
    f_full = np.where(mask, f, 1.0)
    w1 = TreeWeight(w.theta, depth, f_full * np.where(mask, w.values, 1.0))
    w2 = TreeWeight(w.theta, depth, f_full ** (1.0 / (p - 1)))

    recon = w1.values[mask] * w2.values[mask] ** (1.0 - p)
    rec_err = float(np.max(np.abs(recon / w.values[mask] - 1.0)))

    osc_w = osc_constants(w, domain)
    osc1 = osc_constants(w1, domain)
    osc2 = osc_constants(w2, domain)
    certs = [
        WeightCertificate(
            "b1_of_w1", bound=2.0 * s, measured=b1_constant(w1, domain),
            inputs={"s_norm": s, "p": p},
        ),
        WeightCertificate(
            "b1_of_w2_to_p_minus_1", bound=2.0 * s,
            measured=b1_constant(w2, domain) ** (p - 1),
            inputs={"s_norm": s, "p": p},
        ),
        WeightCertificate(
            "osc_of_w1", bound=4.0 * osc_w.c_const ** 2, measured=osc1.c_const,
            inputs={"osc_of_w": osc_w.c_const},
        ),
        WeightCertificate(
            "osc_of_w2", bound=(4.0 * osc_w.c_const) ** (1.0 / (p - 1)),
            measured=osc2.c_const, inputs={"osc_of_w": osc_w.c_const},
        ),
        WeightCertificate(
            "reconstruction_relative_error", bound=1e-10, measured=rec_err,
        ),
    ]
    if domain is None:
        certs.append(WeightCertificate(
            "product_rule_bp", measured=bp_constant(w, p),
            bound=b1_constant(w1) * b1_constant(w2) ** (p - 1),
        ))
    return FactorizationResult(
        w1=w1, w2=w2, f=f_full, p=p, s_norm=s, escalations=escalations,
        tail_ratio=tail_ratio, reconstruction_error=rec_err, certificates=certs,
    )


def factor_bho_full(w: TreeWeight, p: float, terms: int = 60) -> FactorizationResult:
    """Full-disc factorization for any p > 1.

    For p <= 2 this is rdf_factor driven by the full-disc norm bound; for
    p > 2 the dual weight w^{-1/(p-1)} is factored at the conjugate
    exponent and the two factors swap roles.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if p <= 2:
        return rdf_factor(w, p, s_norm_bound(w, p, "full"), terms=terms)

    pp = p / (p - 1)
    dual = w.power(-1.0 / (p - 1))
    res = rdf_factor(dual, pp, s_norm_bound(dual, pp, "full"), terms=terms)
    w1, w2 = res.w2, res.w1
    mask = np.ones(len(w.values), dtype=bool)
    mask[0] = False
    recon = w1.values[mask] * w2.values[mask] ** (1.0 - p)
    rec_err = float(np.max(np.abs(recon / w.values[mask] - 1.0)))
    certs = [
        WeightCertificate(
            "b1_of_w1", bound=(2.0 * res.s_norm) ** (p - 1),
            measured=b1_constant(w1), inputs={"via": "dual", "p": p},
        ),
        WeightCertificate(
            "b1_of_w2_to_p_minus_1", bound=(2.0 * res.s_norm) ** (p - 1),
            measured=b1_constant(w2) ** (p - 1), inputs={"via": "dual", "p": p},
        ),
        WeightCertificate("reconstruction_relative_error", bound=1e-10, measured=rec_err),
        WeightCertificate(
            "product_rule_bp", measured=bp_constant(w, p),
            bound=b1_constant(w1) * b1_constant(w2) ** (p - 1),
        ),
    ]
    return FactorizationResult(
        w1=w1, w2=w2, f=res.f, p=p, s_norm=res.s_norm,
        escalations=res.escalations, tail_ratio=res.tail_ratio,
        reconstruction_error=rec_err, certificates=certs, via_dual=True,
    )
