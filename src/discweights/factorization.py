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

`terms` is a cap.  Each tree's series stops after the first term that
leaves its f bitwise unchanged on every cell (f + t == f), and its tail t
is the term after that one; the result records the terms it summed.  The
certificate is untouched by the early stop: f is still the sum of the
terms taken, t the first one omitted, and the check t <= u is the same.
A series that overflows stops too (inf + inf == inf), but with t = inf, so
it escalates.  The terms past the stop lie further below the rounding of
f, so summing on would leave f, the factors and every certificate bitwise
as they are (checked against the fixed-length sum on seeded weights).

Exponents p in (1, 2] run directly; p > 2 factors the dual weight
w^{-1/(p-1)} at the conjugate exponent and swaps the two factors back.

Each entry point has one array core (_rdf_factor, _factor_bho_full) for
one tree or a (T, 2^(N+1)) stack, one tree per grid offset: the series,
the dual weights and every norm bound and certificate constant run on the
stack, with one domain mask, one stop and one escalation count per row,
and each row's result equals the one-tree call bitwise.  S runs only on
the rows still moving, and an escalation reruns only the rows that failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .weights import (
    DyadicDomain,
    TreeWeight,
    WeightCertificate,
    _b1_values,
    _bp_values,
    _c_values,
    _check_same_grid,
    _checked,
    _floats,
    _mask,
    _tree_arrays,
    _tree_rows,
    _TreeWork,
    _workspace,
)

__all__ = [
    "restricted_maximal_norm_lp",
    "restricted_maximal_norm_dual",
    "s_norm_bound",
    "op_s",
    "FactorizationResult",
    "rdf_factor",
    "factor_bho_full",
]

# a norm bound is doubled at most this many times before the series gives up
_MAX_ESCALATIONS = 8


# ---------------------------------------------------------------------------
# norm bounds feeding the iteration
# ---------------------------------------------------------------------------

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

    mode "full": both maximal norms via the full-disc (Lerner) bound
    ||M||_{L^p(v)} <= 4 (p^2/(p-1))^{1/p} [v]_{B_p,D}^{1/(p-1)}, taken at
    p' for the dual weight (whose B_p' constant is [w]_{B_p,D}^{1/(p-1)})
    and at p for w, so each term is a constant times [w]_{B_p,D}.
    mode "restricted": the weight is w^{delta q} for a given pair
    (q, delta), and the norms come from the restricted bounds in terms of
    [w^q]_{B_p,D,Omega}; here `w` is the base weight, not its power.
    """
    _check_same_grid(w, domain)
    return _s_norms([w.theta], w.values, p, mode, _mask(domain, w.depth), w.depth, q, delta)[0]


def _s_norms(thetas, values: np.ndarray, p: float, mode: str, mask: np.ndarray,
             depth: int, q: float = None, delta: float = None) -> list:
    """s_norm_bound of one tree or a stack, one float per tree."""
    if mode == "full":
        return [_full_norm(p, br) for br in _floats(_bp_values(values, p, mask, depth))]
    if mode == "restricted":
        if q is None or delta is None:
            raise ValueError("restricted mode needs q and delta")
        return [restricted_maximal_norm_dual(p, q, delta, br)
                + restricted_maximal_norm_lp(p, q, delta, br) ** (p - 1)
                for br in _floats(_bp_values(_checked(thetas, values ** q), p, mask, depth))]
    raise ValueError(f"unknown mode {mode!r}")


def _full_norm(p: float, br: float) -> float:
    """s_norm_bound's "full" mode from the full-tree B_p constant br of w."""
    pp = p / (p - 1)
    return (4.0 * (pp * pp / (pp - 1)) ** (1.0 / pp) * br
            + (4.0 * (p * p / (p - 1)) ** (1.0 / p)) ** (p - 1) * br)


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

def op_s(g: np.ndarray, values: np.ndarray, depth: int, p: float, *,
         work: Optional[_TreeWork] = None) -> np.ndarray:
    """One application of S(g) = M(g w)/w + M(g^{1/(p-1)})^{p-1}.

    g and values are one tree or a stack of trees (any leading shape), w
    taken row by row.  There is no domain: the series zeroes g off the
    domain after every step, so masking inside the maximal function would
    change nothing, and the result is bitwise the restricted one (an
    off-domain cell's mass is 0 x area = +0.0 either way).

    Both maximal functions run as one cascade: |g w| and |g|^{1/(p-1)}
    are the two halves of one tree workspace of twice the rows, `work`
    when given (its buffer is overwritten), else `_workspace`'s.  Each
    entry takes the float operations of the two-buffer formula, so the
    bits are the same.
    """
    shape = np.shape(values)
    if np.shape(g) != shape:
        shape = np.broadcast_shapes(np.shape(g), shape)
    pair = np.empty((2,) + shape)
    m_gw, m_g = pair  # g w and |g|^{1/(p-1)}, then their maximal functions
    np.multiply(g, values, out=m_gw)
    np.abs(g, out=m_g)
    m_g **= 1.0 / (p - 1)
    if work is None:
        work = _workspace(pair.size >> (depth + 1), depth)
    work.load(pair)
    work.maximal()
    work.store(pair)
    with np.errstate(over="ignore"):  # a quotient past the float range is inf
        out = m_gw / values
    m_g **= p - 1
    out += m_g
    return out


@dataclass
class FactorizationResult:
    w1: TreeWeight
    w2: TreeWeight
    f: np.ndarray
    p: float
    s_norm: float
    escalations: int
    tail_ratio: float
    terms_used: int
    reconstruction_error: float
    certificates: list = field(default_factory=list)
    via_dual: bool = False

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates)


# a series past the float range sums inf terms, and its tail is NaN (inf / inf)
# once its bound is inf too; either way the caller's check keeps it pending
@np.errstate(over="ignore", invalid="ignore")
def _series(values: np.ndarray, mask: np.ndarray, s: np.ndarray, depth: int,
            p: float, terms: int):
    """Truncated f = sum_k S^k(u) / (2s)^k with u = 1 on the mask, 0 off it.

    Each row stops on its own, after the first term that leaves every cell
    of its f bitwise unchanged (f + t == f), or after `terms` terms.  A row
    whose f overflows gives inf + inf == inf and stops too; its tail is then
    inf, so the caller's check tail <= 1 keeps it pending.  S runs on the
    rows still moving, and once more on a row that has just stopped, for
    its tail, so a stack shrinks as its rows settle; the rows share one tree
    workspace until one leaves.  Each row equals its one-tree result
    bitwise; a single tree stays 1-D.

    Returns, per row, f, the tail ratio max(t/u) over the mask, t the first
    omitted term (u is 1 there, so this is the max of t), and the number of
    terms summed after u.
    """
    f = mask.astype(np.float64)
    tail, used = np.empty(s.shape), np.empty(s.shape, dtype=np.int64)
    rows, v, m, two_s = ..., values, mask, 2.0 * s[..., None]  # the rows still moving
    # one workspace per set of rows still moving: a new one only once a row leaves
    term, work = f.copy(), _workspace(2 * (values.size >> (depth + 1)), depth)
    moved = np.ones(s.shape, dtype=bool)
    for k in range(terms + 1):
        # S of the latest term: the next term on the mask, or the tail of a
        # row that has stopped
        t = op_s(term, v, depth, p, work=work)
        t /= two_s
        done = ~moved | (k == terms)
        if done.any():
            pick = ... if done.all() else done
            if pick is not ... and rows is ...:
                rows = np.arange(len(s))
            out = rows if pick is ... else rows[pick]
            tail[out], used[out] = np.max(np.where(m[pick], t[pick], -np.inf), axis=-1), k
            if pick is ...:
                return f, tail, used
            rows, v, m, two_s, t = (x[moved] for x in (rows, v, m, two_s, t))
            work = _workspace(2 * len(v), depth)
        term = np.where(m, t, 0.0)
        last = f[rows]
        nxt = last + term
        moved = np.any(nxt != last, axis=-1)
        f[rows] = nxt
        del t, last, nxt  # not alive through the next S


def _rdf_factor(thetas, depth: int, values: np.ndarray, mask: np.ndarray, p: float,
                s_norms: Sequence[float], terms: int, free: Sequence[bool],
                bp_w: Optional[list] = None):
    """rdf_factor on one tree or a stack, one norm bound s_norms[i] and
    domain mask per row: (w1 values, w2 values, one result per row, the
    factors' measured constants).  free[i] marks a row without a domain,
    also certified by the product rule, against bp_w[i], the full-tree B_p
    constant of w, when the caller has measured it.  The constants are the
    lists (c_const of w1, c_const of w2, B_1 of w1, B_1 of w2), one float
    per row, on the mask, for callers that certify the factors again."""
    s = np.asarray(s_norms, dtype=np.float64).reshape(values.shape[:-1]) / 2.0
    escalations = np.zeros(s.shape, dtype=np.int64)
    pending = np.ones(s.shape, dtype=bool)
    for _ in range(_MAX_ESCALATIONS + 1):
        s = np.where(pending, 2.0 * s, s)
        if pending.all():
            f, tail_ratio, used = _series(values, mask, s, depth, p, terms)
        else:  # a settled row keeps its bound, so only the pending rows rerun
            f[pending], tail_ratio[pending], used[pending] = _series(
                values[pending], mask[pending], s[pending], depth, p, terms)
        pending = ~(tail_ratio <= 1.0)
        if not pending.any():
            break
        escalations += pending
    else:
        raise ArithmeticError(
            f"series did not settle after {_MAX_ESCALATIONS} doublings of the norm bound"
        )
    s, escalations, tail_ratio, used = (_floats(x) for x in (s, escalations, tail_ratio, used))

    # off the domain the factors carry neutral value 1 (never integrated)
    np.copyto(f, 1.0, where=~mask)
    with np.errstate(over="ignore"):  # a w2 past the float range fails its certificates
        v1, v2 = f * np.where(mask, values, 1.0), f ** (1.0 / (p - 1))
    w1s, w2s = _tree_rows(thetas, depth, v1), _tree_rows(thetas, depth, v2)
    c_w, c1, c2 = (_floats(_c_values(x, mask, depth)) for x in (values, v1, v2))
    b1_1, b1_2 = _floats(_b1_values(v1, mask, depth)), _floats(_b1_values(v2, mask, depth))
    with np.errstate(over="ignore"):  # a float64 power past the float range is inf
        osc = [[WeightCertificate("osc_of_w1", bound=4.0 * c ** 2, measured=m1,
                                  inputs={"osc_of_w": c}),
                WeightCertificate("osc_of_w2", bound=float(np.float64(4.0 * c) ** (1.0 / (p - 1))),
                                  measured=m2, inputs={"osc_of_w": c})]
               for c, m1, m2 in zip(c_w, c1, c2)]
    checked = _factor_certs(values, v1, v2, p, mask, depth, b1_1, b1_2, [2.0 * x for x in s],
                            [{"s_norm": x, "p": p} for x in s], osc, free, bp_w)
    results = [
        FactorizationResult(w1=w1, w2=w2, f=f_row, p=p, s_norm=s_i, escalations=e,
                            tail_ratio=t, terms_used=n, reconstruction_error=rec_err,
                            certificates=certs)
        for w1, w2, f_row, s_i, e, t, n, (rec_err, certs)
        in zip(w1s, w2s, np.atleast_2d(f), s, escalations, tail_ratio, used, checked)]
    return v1, v2, results, (c1, c2, b1_1, b1_2)


def _factor_certs(values, v1, v2, p: float, mask, depth: int, b1_w1: list, b1_w2: list,
                  bounds: list, inputs: list, osc: list, product_rule: Sequence[bool],
                  bp_w: Optional[list] = None) -> list:
    """(reconstruction error, certificates) per row of w = w1 w2^{1-p}: the
    B_1 bounds of both factors (their measured B_1 constants b1_w1, b1_w2
    on the mask), the row's osc certificates, the reconstruction on the
    mask and, where product_rule, the full-tree
    [w]_{B_p} <= [w1]_{B_1} [w2]_{B_1}^{p-1}, [w]_{B_p} measured here
    unless bp_w gives it."""
    with np.errstate(divide="ignore", invalid="ignore"):  # slot 0 is unused
        rec_err = np.abs(v1 * v2 ** (1.0 - p) / values - 1.0)
    rec_err = _floats(np.max(np.where(mask, rec_err, -np.inf), axis=-1))
    if bp_w is None and any(product_rule):
        bp_w = _floats(_bp_values(values, p, _mask(None, depth), depth))
    out = []
    for i, (bound, rule) in enumerate(zip(bounds, product_rule)):
        certs = [
            WeightCertificate("b1_of_w1", bound=bound, measured=b1_w1[i],
                              inputs=dict(inputs[i])),
            WeightCertificate("b1_of_w2_to_p_minus_1", bound=bound,
                              measured=b1_w2[i] ** (p - 1), inputs=dict(inputs[i])),
            *osc[i],
            WeightCertificate("reconstruction_relative_error", bound=1e-10,
                              measured=rec_err[i]),
        ]
        if rule:
            certs.append(WeightCertificate("product_rule_bp", measured=bp_w[i],
                                           bound=b1_w1[i] * b1_w2[i] ** (p - 1)))
        out.append((rec_err[i], certs))
    return out


def rdf_factor(w: TreeWeight, p: float, s_norm: float,
               domain: Optional[DyadicDomain] = None, terms: int = 60) -> FactorizationResult:
    """Iterate S and split w into B_1 factors, certifying the usual bounds.

    Requires p in (1, 2].  s_norm should dominate the norm of S.  The
    series sums at most `terms` terms and stops after the first one that
    leaves f bitwise unchanged on every cell; the next term is the tail t.
    When the truncated series fails its fixed point check t <= u (u = 1 on
    the domain) the bound is doubled, at most 8 times, and the escalation
    count is reported.
    """
    if not (1 < p <= 2):
        raise ValueError("rdf_factor runs for p in (1, 2]; use factor_bho_full")
    return _rdf_factor(*_tree_arrays(w, domain), p, [s_norm], terms, [domain is None])[2][0]


def _factor_bho_full(thetas, depth: int, values: np.ndarray, p: float, terms: int):
    """factor_bho_full on one tree or a stack: (w1 values, w2 values, one
    result per row), with one series, norm bounds, duals and constants."""
    if p / (p - 1) == 1.0:  # the dual route would divide by p' - 1 = 0
        raise ValueError(f"exponent p = {p} is too large: its conjugate p/(p-1) rounds to 1")
    full = np.broadcast_to(_mask(None, depth), values.shape)
    if p <= 2:
        # one B_p measurement feeds the norm bound and the product rule
        bp_w = _floats(_bp_values(values, p, full, depth))
        return _rdf_factor(thetas, depth, values, full, p, [_full_norm(p, br) for br in bp_w],
                           terms, [True] * len(thetas), bp_w)[:3]

    # factor the dual weight at the conjugate exponent, swap the factors and
    # recertify them for w
    pp = p / (p - 1)
    duals = _checked(thetas, values ** (-1.0 / (p - 1)))
    d1, d2, results, (_, _, b1_d1, b1_d2) = _rdf_factor(
        thetas, depth, duals, full, pp, _s_norms(thetas, duals, pp, "full", full, depth), terms,
        [False] * len(thetas))
    checked = _factor_certs(values, d2, d1, p, full, depth, b1_d2, b1_d1,
                            [(2.0 * r.s_norm) ** (p - 1) for r in results],
                            [{"via": "dual", "p": p}] * len(thetas), [[]] * len(thetas),
                            [True] * len(thetas))
    return d2, d1, [replace(res, w1=res.w2, w2=res.w1, p=p, reconstruction_error=rec_err,
                            certificates=certs, via_dual=True)
                    for res, (rec_err, certs) in zip(results, checked)]


def factor_bho_full(w: TreeWeight, p: float, terms: int = 60) -> FactorizationResult:
    """Full-disc factorization for any p > 1.

    For p <= 2 this is rdf_factor driven by the full-disc norm bound; for
    p > 2 the dual weight w^{-1/(p-1)} is factored at the conjugate
    exponent and the two factors swap roles.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    return _factor_bho_full([w.theta], w.depth, w.values, p, terms)[2][0]
