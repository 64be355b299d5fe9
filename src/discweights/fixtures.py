"""Bundled instances for the command line runs and the acceptance suite.

The continuous fixtures are unions of top halves over arcs with non-dyadic
lengths; the first two contain genuine area overlaps and the first wraps
through angle zero.  The weight on all of them is (1 - |z|^2)^{1/2}.  Arc
endpoints stay at rational resolution far above 2^-40, which the probe
nudges in the covering check rely on.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np

from .averaging import ContinuousDomain
from .geometry import UnitArc
from .weights import TreeWeight, random_log_walk

__all__ = ["CONTINUOUS_FIXTURES", "continuous_fixture", "bho_tree_fixture"]


CONTINUOUS_FIXTURES = {
    "pair_overlap": [
        UnitArc(F(1, 3), F(1, 5)),
        UnitArc(F(2, 5), F(1, 7)),
        UnitArc(F(19, 24), F(1, 3)),
    ],
    "chain_wrap": [
        UnitArc(F(1, 12), F(1, 5)),
        UnitArc(F(1, 6), F(1, 6)),
        UnitArc(F(7, 24), F(1, 7)),
        UnitArc(F(5, 9), F(1, 9)),
    ],
    "wide_plus_thin": [
        UnitArc(F(1, 2), F(2, 3)),
        UnitArc(F(1, 3), F(1, 10)),
        UnitArc(F(5, 6), F(1, 7)),
    ],
}


def sqrt_weight():
    """(1 - |z|^2)^{1/2} as a continuous weight fn(r, angle)."""
    def fn(r, a):
        return np.sqrt(1.0 - r ** 2)

    return fn


def continuous_fixture(name: str):
    """(weight, region) for a bundled continuous instance."""
    try:
        arcs = CONTINUOUS_FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; have {sorted(CONTINUOUS_FIXTURES)}"
        ) from None
    return sqrt_weight(), ContinuousDomain(arcs)


def bho_tree_fixture(depth: int = 8, seed: int = 7, sigma: float = 0.6) -> TreeWeight:
    """Deterministic tree weight with bounded oscillation, for factorization runs."""
    return random_log_walk(depth, seed=seed, sigma=sigma)
