"""Brute-force reference computations shared by several test modules.

Everything here recomputes tree quantities from explicit cell lists in
pure Python, deliberately ignoring the package's vectorized layouts.
"""

import math
from fractions import Fraction as F

import numpy as np

from discweights.geometry import area_carleson, area_top
from discweights.weights import node_id, node_levels


def brute_cells(depth, domain=None):
    out = []
    for k in range(depth + 1):
        ell = F(1, 1 << k)
        area = area_top(ell) if k < depth else area_carleson(ell)
        for j in range(1 << k):
            if domain is None or domain.mask[node_id(k, j)]:
                out.append((k, j, area))
    return out


def brute_box_integral(w, level, index, power=1.0, domain=None):
    total = 0.0
    for k, j, area in brute_cells(w.depth, domain):
        if k >= level and (j >> (k - level)) == index:
            total += w.value_at(k, j) ** power * float(area)
    return total


def brute_maximal(w, domain=None):
    out = {}
    for k, j, _ in brute_cells(w.depth):
        best = float("-inf")
        lvl, idx = k, j
        while True:
            num = brute_box_integral(w, lvl, idx, 1.0, domain)
            den = float(area_carleson(F(1, 1 << lvl)))
            best = max(best, num / den)
            if lvl == 0:
                break
            lvl, idx = lvl - 1, idx >> 1
        out[(k, j)] = best
    return out


def beta_dyadic_pairs(levels_a, indices_a, levels_b, indices_b):
    """Matrix of dyadic distances from the cells (levels_a, indices_a), one
    per row, to the cells (levels_b, indices_b), one per column."""
    k = levels_a[:, None]
    m = levels_b[None, :]
    kmin = np.minimum(k, m)
    ja = indices_a[:, None] >> (k - kmin)
    jb = indices_b[None, :] >> (m - kmin)
    return np.maximum(k, m) - (kmin - _bit_length(ja ^ jb))


def _bit_length(x):
    out = np.zeros_like(x)
    nz = x > 0
    out[nz] = np.floor(np.log2(x[nz])).astype(out.dtype) + 1
    return out


def brute_l_const(w, domain=None, row_chunk=1024):
    """sup over domain-cell pairs of |log w(a) - log w(b)| / (1 + beta(a, b)).

    Builds the pairwise gap and distance matrices explicitly, `row_chunk`
    rows at a time so that large trees stay within memory.
    """
    mask = domain.mask if domain is not None else np.ones(len(w.values), dtype=bool)
    ids = np.nonzero(mask[1:])[0] + 1
    levels = node_levels(w.depth)[ids]
    indices = ids - (np.int64(1) << levels)
    logv = np.log(w.values[ids])
    best = 0.0
    for start in range(0, len(ids), row_chunk):
        rows = slice(start, start + row_chunk)
        beta = beta_dyadic_pairs(levels[rows], indices[rows], levels, indices)
        gaps = np.abs(logv[rows, None] - logv[None, :])
        best = max(best, float(np.max(gaps / (1.0 + beta))))
    return best


def brute_c_const(w, domain=None):
    """max(1, sup over arcs I above the leaf level of max / min of w over the
    domain cells among T(I) and its children's top halves), arc by arc."""
    best = 1.0
    for i in range(1, 1 << w.depth):
        trio = [float(w.values[c]) for c in (i, 2 * i, 2 * i + 1)
                if domain is None or domain.mask[c]]
        if trio:
            best = max(best, max(trio) / min(trio))
    return best


def brute_cell_id(depth, theta, modulus, angle):
    """Node id of the cell of a depth-N tree with offset theta holding a point.

    Exact rational arithmetic on the float inputs: the level-k cell (k < N)
    is the top half T(I), depth 1 - |z| in (2^-(k+1), 2^-k] over the arc
    (theta + j 2^-k, theta + (j+1) 2^-k]; the leaf level takes every point
    of depth at most 2^-N.
    """
    d = 1 - F(modulus)
    k = 0
    while k < depth and d <= F(1, 1 << (k + 1)):
        k += 1
    rel = (F(angle) - F(theta)) % 1
    j = math.ceil(rel * (1 << k)) - 1
    return (1 << k) + (j if j >= 0 else (1 << k) - 1)
