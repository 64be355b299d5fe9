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

The `_many` entry points factor several trees of one depth at once: the
series runs on a (T, 2^(N+1)) stack with one norm bound, one domain mask
and one escalation count per row, and each row's result equals the
one-tree call bitwise.  The one-tree functions are their T = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _cell_masses,
    _per_offset,
    _rows,
    _stack,
    ancestor_max,
    b1_constant,
    bp_constant,
    c_const,
    maximal_values,
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
    "rdf_factor_many",
    "factor_bho_full",
    "factor_bho_full_many",
]

# a norm bound is doubled at most this many times before the series gives up
_MAX_ESCALATIONS = 8


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

def op_s(g: np.ndarray, values: np.ndarray, depth: int, p: float) -> np.ndarray:
    """One application of S(g) = M(g w)/w + M(g^{1/(p-1)})^{p-1}.

    g and values are one tree or a stack of trees (any leading shape), w
    taken row by row.  There is no domain: the series zeroes g off the
    domain after every step, so masking inside the maximal function would
    change nothing, and the result is bitwise the restricted one (an
    off-domain cell's mass is 0 x area = +0.0 either way).
    """
    m1 = maximal_values(g * values, depth)
    m2 = maximal_values(np.abs(g) ** (1.0 / (p - 1)), depth)
    return m1 / values + m2 ** (p - 1)


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


def _series(values: np.ndarray, mask: np.ndarray, s: np.ndarray, depth: int,
            p: float, terms: int):
    """Truncated f = sum_k S^k(u) / (2s)^k with u = 1 on the mask, 0 off it.

    Returns f and, per row, the tail ratio max(t/u) over the mask, t the
    first omitted term (u is 1 there, so this is the max of t).
    """
    two_s = 2.0 * s[..., None]
    term = mask.astype(np.float64)
    f = term.copy()
    for _ in range(terms):
        term = np.where(mask, op_s(term, values, depth, p) / two_s, 0.0)
        f = f + term
    tail = op_s(term, values, depth, p) / two_s
    return f, np.max(np.where(mask, tail, -np.inf), axis=-1)


def rdf_factor_many(ws: Sequence[TreeWeight], p: float, s_norms: Sequence[float],
                    domains: Optional[Sequence[Optional[DyadicDomain]]] = None,
                    terms: int = 60) -> list:
    """rdf_factor for several trees of one depth, one result per tree.

    The series runs once on the stack of all trees.  Each row has its own
    norm bound s_norms[i] and domain (None for the full tree); a row whose
    series does not settle has its bound doubled and the stack is run
    again, which leaves every settled row bitwise as it was (its bound does
    not move).  A ValueError while splitting one row names its offset.
    """
    if not (1 < p <= 2):
        raise ValueError("rdf_factor runs for p in (1, 2]; use factor_bho_full")
    ws = list(ws)
    depth = ws[0].depth
    if any(w.depth != depth for w in ws):
        raise ValueError("a stack of trees needs one depth")
    domains = [None] * len(ws) if domains is None else list(domains)
    full = np.ones(1 << (depth + 1), dtype=bool)
    full[0] = False
    masks = [full if domain is None else domain.mask for domain in domains]
    values, mask = _stack([w.values for w in ws]), _stack(masks)

    s = np.asarray(s_norms, dtype=np.float64).reshape(values.shape[:-1]) / 2.0
    escalations = np.zeros(s.shape, dtype=np.int64)
    pending = np.ones(s.shape, dtype=bool)
    for _ in range(_MAX_ESCALATIONS + 1):
        s = np.where(pending, 2.0 * s, s)
        f, tail_ratio = _series(values, mask, s, depth, p, terms)
        pending = ~(tail_ratio <= 1.0)
        if not pending.any():
            break
        escalations += pending
    else:
        raise ArithmeticError(
            f"series did not settle after {_MAX_ESCALATIONS} doublings of the norm bound"
        )

    return _per_offset(
        [w.theta for w in ws], lambda *row: _split(p, *row), ws, domains, masks,
        _rows(f), np.atleast_1d(s), np.atleast_1d(escalations),
        np.atleast_1d(tail_ratio))


def _split(p: float, w: TreeWeight, domain: Optional[DyadicDomain], mask: np.ndarray,
           f: np.ndarray, s, escalations, tail_ratio) -> FactorizationResult:
    """One row of rdf_factor_many: the B_1 factors and their certificates."""
    s, tail_ratio = float(s), float(tail_ratio)
    depth = w.depth
    # off the domain the factors carry neutral value 1 (never integrated)
    f_full = np.where(mask, f, 1.0)
    w1 = TreeWeight(w.theta, depth, f_full * np.where(mask, w.values, 1.0))
    w2 = TreeWeight(w.theta, depth, f_full ** (1.0 / (p - 1)))

    recon = w1.values[mask] * w2.values[mask] ** (1.0 - p)
    rec_err = float(np.max(np.abs(recon / w.values[mask] - 1.0)))

    c_w = c_const(w, domain)
    b1_w1, b1_w2 = b1_constant(w1, domain), b1_constant(w2, domain)
    certs = [
        WeightCertificate(
            "b1_of_w1", bound=2.0 * s, measured=b1_w1,
            inputs={"s_norm": s, "p": p},
        ),
        WeightCertificate(
            "b1_of_w2_to_p_minus_1", bound=2.0 * s, measured=b1_w2 ** (p - 1),
            inputs={"s_norm": s, "p": p},
        ),
        WeightCertificate(
            "osc_of_w1", bound=4.0 * c_w ** 2, measured=c_const(w1, domain),
            inputs={"osc_of_w": c_w},
        ),
        WeightCertificate(
            "osc_of_w2", bound=(4.0 * c_w) ** (1.0 / (p - 1)),
            measured=c_const(w2, domain), inputs={"osc_of_w": c_w},
        ),
        WeightCertificate(
            "reconstruction_relative_error", bound=1e-10, measured=rec_err,
        ),
    ]
    if domain is None:
        certs.append(WeightCertificate(
            "product_rule_bp", measured=bp_constant(w, p), bound=b1_w1 * b1_w2 ** (p - 1),
        ))
    return FactorizationResult(
        w1=w1, w2=w2, f=f_full, p=p, s_norm=s, escalations=int(escalations),
        tail_ratio=tail_ratio, reconstruction_error=rec_err, certificates=certs,
    )


def rdf_factor(w: TreeWeight, p: float, s_norm: float,
               domain: Optional[DyadicDomain] = None, terms: int = 60) -> FactorizationResult:
    """Iterate S and split w into B_1 factors, certifying the usual bounds.

    Requires p in (1, 2].  s_norm should dominate the norm of S; when the
    truncated series fails its fixed point check the bound is doubled, at
    most 8 times, and the escalation count is reported.
    The one-tree case of rdf_factor_many.
    """
    return rdf_factor_many([w], p, [s_norm], [domain], terms)[0]


def factor_bho_full_many(ws: Sequence[TreeWeight], p: float, terms: int = 60) -> list:
    """factor_bho_full for several trees of one depth, one series for all."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    ws = list(ws)
    thetas = [w.theta for w in ws]
    if p <= 2:
        s_norms = _per_offset(thetas, lambda w: s_norm_bound(w, p, "full"), ws)
        return rdf_factor_many(ws, p, s_norms, terms=terms)

    pp = p / (p - 1)
    duals = _per_offset(thetas, lambda w: w.power(-1.0 / (p - 1)), ws)
    s_norms = _per_offset(thetas, lambda d: s_norm_bound(d, pp, "full"), duals)
    results = rdf_factor_many(duals, pp, s_norms, terms=terms)
    return _per_offset(thetas, lambda w, res: _swap_dual(w, p, res), ws, results)


def _swap_dual(w: TreeWeight, p: float, res: FactorizationResult) -> FactorizationResult:
    """One row of the p > 2 route: swap the dual factors and recertify."""
    w1, w2 = res.w2, res.w1
    mask = np.ones(len(w.values), dtype=bool)
    mask[0] = False
    recon = w1.values[mask] * w2.values[mask] ** (1.0 - p)
    rec_err = float(np.max(np.abs(recon / w.values[mask] - 1.0)))
    b1_w1, b1_w2 = b1_constant(w1), b1_constant(w2)
    certs = [
        WeightCertificate(
            "b1_of_w1", bound=(2.0 * res.s_norm) ** (p - 1),
            measured=b1_w1, inputs={"via": "dual", "p": p},
        ),
        WeightCertificate(
            "b1_of_w2_to_p_minus_1", bound=(2.0 * res.s_norm) ** (p - 1),
            measured=b1_w2 ** (p - 1), inputs={"via": "dual", "p": p},
        ),
        WeightCertificate("reconstruction_relative_error", bound=1e-10, measured=rec_err),
        WeightCertificate(
            "product_rule_bp", measured=bp_constant(w, p), bound=b1_w1 * b1_w2 ** (p - 1),
        ),
    ]
    return FactorizationResult(
        w1=w1, w2=w2, f=res.f, p=p, s_norm=res.s_norm,
        escalations=res.escalations, tail_ratio=res.tail_ratio,
        reconstruction_error=rec_err, certificates=certs, via_dual=True,
    )


def factor_bho_full(w: TreeWeight, p: float, terms: int = 60) -> FactorizationResult:
    """Full-disc factorization for any p > 1.

    For p <= 2 this is rdf_factor driven by the full-disc norm bound; for
    p > 2 the dual weight w^{-1/(p-1)} is factored at the conjugate
    exponent and the two factors swap roles.  The one-tree case of
    factor_bho_full_many.
    """
    return factor_bho_full_many([w], p, terms)[0]
