"""Dyadic martingales on [0, 1] and their trace behaviour on the disc.

The binary tree over [0, 1] carries martingales: one value per dyadic
interval, each parent the mean of its two children.  Two digit-driven
families do most of the work.  The signed-digit walk adds +1 or -1 per
level straight from the interval's binary digits.  The quarter-pattern
martingale changes only at every second level: among the four
grandchildren of a node the outer two gain 1 and the inner two lose 1,
so every same-length adjacent jump stays at most 2 while the value along
the outermost digit path still grows linearly in depth.

Interval values double as boundary-function surrogates at points of the
disc.  A point sequence stores tree addresses; the anchor of an address
of length k sits at modulus 1 - 2^{-k} under the interval's center, so
its mass 1 - |z|^2 = 2^{-k}(2 - 2^{-k}) exactly.  On top of the anchors
live Carleson sums, exponentially weighted trace sums, and a builder
that selects, generation by generation, antichains of nodes whose
squared martingale value beats a prescribed multiple of
log(1/(1 - |z|^2)) while each parent passes a fixed fraction of its mass
to its selected descendants.

Nodes below level ~50 make 1 - |z| collapse in double precision, so all
metric quantities are computed from boundary gaps d = 1 - |z| and exact
angle differences:

    |z - w|^2          = (d_z - d_w)^2            + 4 r_z r_w sin^2(pi dt)
    |1 - conj(z) w|^2  = (d_z + d_w - d_z d_w)^2  + 4 r_z r_w sin^2(pi dt)

with dt the wrapped angle difference in turns.  No term is a difference
of nearly equal floats, and 1 - rho^2 comes out as the positive quotient
(mass_z * mass_w) / |1 - conj(z) w|^2.  Sums over many pairs evaluate all
probe addresses against all anchor addresses in one array pass, on
integer cells: every angle is an integer over 2^(K+1), K the deepest
level, so dt is an exact integer ratio rounded once, and the gap terms
are integer quotients per pair of levels.  The grid offset shifts every
angle alike and never enters a pair term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import mod1

__all__ = [
    "DyadicMartingale",
    "random_walk",
    "kahane",
    "random_pm1",
    "martingale_from_spec",
    "bloch_seminorm",
    "azuma_counts",
    "azuma_table",
    "azuma_fit",
    "AzumaRow",
    "AzumaFit",
    "SeqEntry",
    "PointSeq",
    "radial_chain",
    "CarlesonReport",
    "carleson_sup",
    "trace_sup_i",
    "trace_weak_l1",
    "threshold_sequence",
    "counterexample_build",
    "divergence_terms",
    "ParentRecord",
    "GenerationRecord",
    "BuildResult",
]

_MAX_MATERIALIZE = 24  # level_values refuses to allocate beyond 2^24 entries


def _validate_address(address: str) -> str:
    if not isinstance(address, str) or any(c not in "01" for c in address):
        raise ValueError(f"address must be a string of 0/1 digits, got {address!r}")
    return address


# A digit rule gives, per child level n, a table steps[previous digit][digit]
# of the step from the parent into the child; the previous digit at level 1
# counts as 0.  Level n uses rule[n % len(rule)].
_WALK_STEPS = ((-1, 1), (-1, 1))
_QUARTER_STEPS = ((1, -1), (-1, 1))
_STILL = ((0, 0), (0, 0))
_RULES = {
    "random_walk": (_WALK_STEPS,),
    "kahane": (_QUARTER_STEPS, _STILL),
}


class DyadicMartingale:
    """A martingale on the binary tree, digit-rule or materialized.

    Addresses are strings of '0'/'1' digits, the root being the empty
    string.  Materialized instances store one numpy array per level (an
    integer array keeps its dtype, anything else becomes float) and
    verify the midpoint law exactly at construction; the digit-rule kinds
    ("random_walk", "kahane") are defined at every depth, up to an
    optional declared depth.
    """

    def __init__(self, kind: str, levels: Optional[Sequence[np.ndarray]] = None,
                 depth: Optional[int] = None):
        self.kind = kind
        self.depth = depth
        self._levels = None
        if levels is not None:
            arrs = [lv if isinstance(lv, np.ndarray) and lv.dtype.kind == "i"
                    else np.asarray(lv, dtype=float) for lv in levels]
            for n, lv in enumerate(arrs):
                if lv.shape != (1 << n,):
                    raise ValueError(f"level {n} must hold {1 << n} values")
            for n in range(len(arrs) - 1):
                # a float sum: integer children may overflow their own dtype
                mid = np.add(arrs[n + 1][0::2], arrs[n + 1][1::2], dtype=float) / 2.0
                if not np.array_equal(arrs[n], mid):
                    bad = int(np.flatnonzero(arrs[n] != mid)[0])
                    raise ValueError(
                        f"midpoint law fails at level {n}, index {bad}: "
                        f"{arrs[n][bad]} != mean of children {arrs[n + 1][2 * bad: 2 * bad + 2]}"
                    )
            self._levels = arrs
            self.depth = len(arrs) - 1
        elif kind not in _RULES:
            raise ValueError(f"unknown martingale kind {kind!r}: "
                             "no digit rule and no materialized levels")

    def _steps(self, n: int):
        """The step table into child level n >= 1 of a digit-rule kind."""
        rule = _RULES[self.kind]
        return rule[n % len(rule)]

    def _check_depth(self, n: int, what: str) -> None:
        if self.depth is not None and n > self.depth:
            raise ValueError(f"{what} lies below depth {self.depth}")

    # -- evaluation ---------------------------------------------------

    def value(self, address: str) -> float:
        _validate_address(address)
        self._check_depth(len(address), f"address {address!r}")
        if self._levels is not None:
            return float(self._levels[len(address)][int(address, 2) if address else 0])
        v, prev = 0, 0
        for n, c in enumerate(address, 1):
            digit = int(c)
            v += self._steps(n)[prev][digit]
            prev = digit
        return float(v)

    def level_values(self, n: int) -> np.ndarray:
        """All values at level n, in address order."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        self._check_depth(n, f"level {n}")
        if self._levels is not None:
            return self._levels[n].astype(float, copy=False)
        if n > _MAX_MATERIALIZE:
            raise ValueError(f"refusing to materialize level {n} > {_MAX_MATERIALIZE}")
        vals = np.zeros(1)
        for m in range(1, n + 1):
            i = np.arange(1 << m)
            vals = np.repeat(vals, 2) + np.array(self._steps(m), dtype=float)[(i >> 1) & 1, i & 1]
        return vals

    # -- invariants ---------------------------------------------------

    def check_midpoint_law(self) -> int:
        """Verify M_I == (M_I0 + M_I1)/2 exactly; returns the number of checks.

        Materialized trees are swept node by node (they were already at
        construction; this re-runs the sweep).  A digit rule's children
        differ from their parent by the two steps of one row steps[prev],
        so the law holds at every node of every depth exactly when each
        row of each table sums to 0; the checks are those rows.
        """
        if self._levels is not None:
            checks = 0
            for n in range(self.depth):
                lv, nxt = self._levels[n], self._levels[n + 1]
                if not np.array_equal(lv, np.add(nxt[0::2], nxt[1::2], dtype=float) / 2.0):
                    raise ValueError(f"midpoint law fails at level {n}")
                checks += lv.size
            return checks
        rows = 0
        for i, steps in enumerate(_RULES[self.kind]):
            for prev, row in enumerate(steps):
                if sum(row) != 0:
                    raise ValueError(f"midpoint law fails in table {i} of {self.kind!r}: "
                                     f"steps after digit {prev} are {row}")
                rows += 1
        return rows


def random_walk(depth: Optional[int] = None) -> DyadicMartingale:
    """The signed-digit walk: value = (#ones - #zeros) of the address."""
    return DyadicMartingale("random_walk", depth=depth)


def kahane(depth: Optional[int] = None) -> DyadicMartingale:
    """The quarter-pattern martingale with jumps bounded by 2.

    Odd levels copy the parent.  At even levels the four grandchildren
    of the level-(n-2) ancestor split as outer quarters +1, inner
    quarters -1; equivalently each completed digit pair contributes +1
    when its two digits agree and -1 when they differ.
    """
    return DyadicMartingale("kahane", depth=depth)


def random_pm1(depth: int, seed) -> DyadicMartingale:
    """Materialized martingale whose children differ from the parent by +-1.

    Each node hands +1 to one child and -1 to the other, the order drawn
    from the seeded generator, so the midpoint law holds exactly and all
    increments have unit size.
    """
    rng = np.random.default_rng(seed)
    # |value| <= depth: int8 holds every depth whose 2^depth leaves fit in memory
    levels = [np.zeros(1, dtype=np.int8)]
    for n in range(1, depth + 1):
        parent = np.repeat(levels[-1], 2)
        sign = np.where(rng.integers(0, 2, size=1 << (n - 1)) == 0, np.int8(1), np.int8(-1))
        bump = np.empty(1 << n, dtype=np.int8)
        bump[0::2] = sign
        bump[1::2] = -sign
        levels.append(parent + bump)
    return DyadicMartingale("random_pm1", levels=levels, depth=depth)


def martingale_from_spec(spec: dict) -> DyadicMartingale:
    """Build a martingale from its JSON description.

    {"kind": "random_walk" | "kahane"} with optional "depth";
    {"kind": "random_pm1", "depth": N, "seed": S};
    {"kind": "materialized", "values": [[...], ...]}.
    """
    if spec.get("kind") == "random_pm1":
        return random_pm1(spec["depth"], spec.get("seed", 0))
    return DyadicMartingale(spec.get("kind"), levels=spec.get("values"),
                            depth=spec.get("depth"))


# ---------------------------------------------------------------------------
# adjacency seminorm
# ---------------------------------------------------------------------------

def bloch_seminorm(M: DyadicMartingale, depth: int) -> float:
    """Largest |M_I - M_J| over same-length adjacent pairs, levels 1..depth.

    Adjacent means consecutive intervals of the same level inside [0, 1];
    there is no wraparound pair across 0 ~ 1.
    """
    best = 0.0
    for n in range(1, depth + 1):
        vals = M.level_values(n)
        if vals.size > 1:
            best = max(best, float(np.max(np.abs(np.diff(vals)))))
    return best


# ---------------------------------------------------------------------------
# large-deviation counting
# ---------------------------------------------------------------------------

def _exact_eps(eps) -> Fraction:
    """Thresholds are compared exactly; floats are read decimally.

    Fraction(str(0.3)) == 3/10, so a caller passing the literal 0.3 gets
    the decimal threshold rather than the binary float below it.
    """
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, int):
        return Fraction(eps)
    return Fraction(str(eps))


def _walk_counts(M: DyadicMartingale, base: str, es: Sequence[Fraction], ks) -> Dict[int, list]:
    """{k: one count per eps} for a digit-rule kind.

    Intervals at the same relative level with equal value difference and
    equal last digit transition identically, so one walk of (difference,
    last digit) classes to max(ks) serves every level on the way.  The
    differences are integers, so |d| > eps k exactly when |d| > floor(eps k).
    """
    states = {(0, int(base[-1]) if base else 0): 1}
    counts = {}
    for m in range(1, max(ks, default=0) + 1):
        steps = M._steps(len(base) + m)
        nxt: Dict[Tuple[int, int], int] = {}
        for (d, b), c in states.items():
            for digit, step in enumerate(steps[b]):
                nxt[d + step, digit] = nxt.get((d + step, digit), 0) + c
        states = nxt
        if m in ks:
            counts[m] = [sum(c for (d, _), c in states.items() if abs(d) > t)
                         for t in (math.floor(e * m) for e in es)]
    return counts


def _slice_counts(M: DyadicMartingale, base: str, es: Sequence[Fraction], ks) -> Dict[int, list]:
    """{k: one count per eps} for a materialized tree, one slice per k."""
    j0 = int(base, 2) if base else 0
    counts = {}
    for k in ks:
        b = M._levels[len(base)][j0].item()
        sub = M._levels[len(base) + k][j0 << k:(j0 + 1) << k]
        if sub.dtype.kind == "i":
            # |x - b| > e k exactly when x > b + floor(e k) or x < b - floor(e k):
            # two comparisons in the levels' own width, no float temporaries
            counts[k] = [int(np.count_nonzero(sub > b + t)) + int(np.count_nonzero(sub < b - t))
                         for t in (math.floor(e * k) for e in es)]
            continue
        diffs = np.abs(sub - b)
        counts[k] = []
        for e in es:
            # lo is the largest float <= e k, so for a float d, d > lo exactly
            # when d > e k: one exact cut, no entry needs a Fraction
            lo = float(e * k)
            if Fraction(lo) > e * k:
                lo = np.nextafter(lo, -np.inf)
            counts[k].append(int(np.count_nonzero(diffs > lo)))
    return counts


def azuma_counts(M: DyadicMartingale, eps, k: int, base: str = "") -> int:
    """Number of intervals J below `base` at relative depth k with
    |M_J - M_base| > eps * k (strict).

    Exact, and the one-row case of azuma_table.  eps given as a float is
    interpreted decimally (0.3 means 3/10).  A declared or materialized
    depth must reach len(base) + k.
    """
    return azuma_table(M, [eps], [k], base)[0].count


@dataclass(frozen=True)
class AzumaRow:
    eps: float
    k: int
    count: int
    total: int


@dataclass(frozen=True)
class AzumaFit:
    gamma: float
    c: float
    points: int

    def bound(self, eps: float, k: int) -> float:
        return self.c * (2.0 ** k) * math.exp(-self.gamma * eps * eps * k)


def azuma_table(M: DyadicMartingale, eps_grid: Sequence, k_grid: Sequence[int],
                base: str = "") -> List[AzumaRow]:
    """azuma_counts for every (eps, k), eps outer and k in the given order.

    A digit-rule kind walks its value classes once, to max(k_grid); a
    materialized tree is sliced once per k and every eps is counted on
    that slice.  Rows are checked in order, and the first bad one raises.
    """
    _validate_address(base)
    ks = [int(k) for k in k_grid]
    es = [_exact_eps(eps) for eps in eps_grid]
    for e in es:
        for k in ks:
            if k < 1:
                raise ValueError("relative depth k must be >= 1")
            if e <= 0:
                raise ValueError("eps must be positive")
            if M.depth is not None and len(base) + k > M.depth:
                raise ValueError(f"need depth {len(base) + k}, have {M.depth}")
    counts = (_walk_counts if M._levels is None else _slice_counts)(M, base, es, set(ks))
    return [AzumaRow(float(e), k, counts[k][i], 1 << k) for i, e in enumerate(es) for k in ks]


def azuma_fit(rows: Sequence[AzumaRow]) -> AzumaFit:
    """Least-squares decay rate for log(count / 2^k) against eps^2 k.

    Zero counts satisfy any bound and are left out of the regression;
    the constant is then lifted so that count <= C 2^k e^{-gamma eps^2 k}
    holds at every positive row.
    """
    xs, ys = [], []
    for r in rows:
        if r.count > 0:
            xs.append(r.eps * r.eps * r.k)
            # float(total), not int / int: past 2^53 the two round apart, and
            # the reported constants come from the float quotient
            ys.append(math.log(r.count / float(r.total)))
    if len(xs) < 2 or max(xs) == min(xs):
        raise ValueError("need at least two distinct positive rows to fit")
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    gamma = -float(slope)
    log_c = max(y + gamma * x for x, y in zip(xs, ys))
    return AzumaFit(gamma=gamma, c=math.exp(log_c), points=len(xs))


# ---------------------------------------------------------------------------
# point sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqEntry:
    address: str
    generation: int = 0

    def __post_init__(self):
        _validate_address(self.address)

    @property
    def level(self) -> int:
        return len(self.address)

    @property
    def mass(self) -> Fraction:
        """1 - |z|^2 = d(2 - d) at the anchor, d = 2^-k its boundary gap."""
        d = Fraction(1, 1 << self.level)
        return d * (2 - d)


class PointSeq:
    """A sequence of disc points anchored at dyadic tree addresses.

    The anchor of an address of length k has modulus 1 - 2^{-k} and the
    central angle of its interval (shifted by grid_theta), so each top
    half holds at most one anchor and distinct addresses mean distinct
    points; a repeated address raises a ValueError.  Entries may carry a
    generation tag for builder output.
    """

    def __init__(self, entries, grid_theta=0):
        norm = []
        for e in entries:
            if isinstance(e, SeqEntry):
                norm.append(e)
            elif isinstance(e, str):
                norm.append(SeqEntry(e))
            else:
                norm.append(SeqEntry(*e))
        seen: Dict[str, int] = {}
        dups = []
        for e in norm:
            seen[e.address] = seen.get(e.address, 0) + 1
            if seen[e.address] == 2:
                dups.append(e.address)
        if dups:
            raise ValueError(f"duplicate addresses (one point per top half): {dups}")
        self.entries: Tuple[SeqEntry, ...] = tuple(norm)
        self.grid_theta = mod1(grid_theta)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def masses(self) -> np.ndarray:
        return np.array([float(e.mass) for e in self.entries])

    def generation_spans(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for i, e in enumerate(self.entries):
            out.setdefault(e.generation, []).append(i)
        return out

    def to_json(self) -> dict:
        return {
            "grid_theta": str(self.grid_theta),
            "entries": [{"address": e.address, "generation": e.generation}
                        for e in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointSeq":
        theta = data.get("grid_theta", 0)
        if isinstance(theta, str):
            theta = Fraction(theta)
        entries = [SeqEntry(d["address"], int(d.get("generation", 0)))
                   for d in data["entries"]]
        return cls(entries, grid_theta=theta)


def radial_chain(depth: int = 12) -> PointSeq:
    """Nested top halves along the leftmost digit path, levels 1..depth."""
    return PointSeq([SeqEntry("0" * j, generation=j) for j in range(1, depth + 1)])


# ---------------------------------------------------------------------------
# stable disc metric between address anchors
# ---------------------------------------------------------------------------

# Probe rows per block of the pair kernel are chosen so that a block holds
# about this many pairs (at least one probe row): each of its arrays takes
# about 128 KiB however many probes a call has.
_BLOCK_PAIRS = 1 << 14


def _gap_terms(probe_levels: Sequence[int], anchor_levels: Sequence[int]):
    """The angle-free factors of the pair formula, one entry per (probe
    level, anchor level): with gaps d = 1/q, q = 2^k, they are (1 - d1)(1 - d2),
    (d1 - d2)^2, (d1 + d2 - d1 d2)^2 and the mass product
    d1(2 - d1) d2(2 - d2), each rounded to float where the scalar formula
    rounds it.  Each is one integer quotient, and int / int rounds once.
    """
    shape = (len(probe_levels), len(anchor_levels))
    rprod, near, far, mass = (np.empty(shape) for _ in range(4))
    for i, k1 in enumerate(probe_levels):
        q1 = 1 << k1
        m1 = (2 * q1 - 1) / (q1 * q1)
        for j, k2 in enumerate(anchor_levels):
            q2 = 1 << k2
            q = q1 * q2
            rprod[i, j] = (q1 - 1) * (q2 - 1) / q
            near[i, j] = ((q2 - q1) / q) ** 2
            far[i, j] = ((q2 + q1 - 1) / q) ** 2
            mass[i, j] = m1 * ((2 * q2 - 1) / (q2 * q2))
    return rprod, near, far, mass


def _pair_blocks(probes: Sequence[str], anchors: Sequence[str]):
    """(rho^2, 1 - rho^2) between every probe and every anchor.

    Probes and anchors are tree addresses; the anchor of an address of
    level k and index i has gap 2^-k and angle (2i + 1) / 2^(k+1).  The
    grid offset is left out: it shifts every angle alike, so no pair term
    sees it.  Yields (start, rho2, inv) with (rows, anchors) float arrays
    for the probes start, start + 1, ..., a block of about _BLOCK_PAIRS
    pairs at a time.  With K the deepest level, every angle is an integer
    over L = 2^(K+1), so the folded difference dt is an integer over L,
    divided once; the gap terms are integer quotients per level pair from
    _gap_terms.  Each entry is bitwise what the scalar formula gives for
    its pair.  Angle numerators are int64 while L < 2^53 (so dt / L
    rounds once) and Python ints above.  A pair whose |1 - conj(z) w|^2
    underflows to 0 raises a ValueError naming its levels.
    """
    points = list(probes) + list(anchors)
    count = len(probes)
    K = max(map(len, points), default=0)
    L = 2 << K
    turns = np.array([(2 * int(a or "0", 2) + 1) << (K - len(a)) for a in points],
                     dtype=np.int64 if L < 1 << 53 else object)
    probe_levels = sorted({len(a) for a in probes})
    anchor_levels = sorted({len(a) for a in anchors})
    rprod, near, far, mass = _gap_terms(probe_levels, anchor_levels)
    where_p = {k: i for i, k in enumerate(probe_levels)}
    where_a = {k: j for j, k in enumerate(anchor_levels)}
    gp = np.array([where_p[len(a)] for a in probes], dtype=np.intp)
    ga = np.array([where_a[len(a)] for a in anchors], dtype=np.intp)[None, :]
    rows = max(1, _BLOCK_PAIRS // max(1, len(anchors)))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        dt = (turns[start:stop, None] - turns[None, count:]) % L
        dt = np.minimum(dt, L - dt)
        sin_half = np.sin(np.pi * (dt / L).astype(float))
        g = gp[start:stop, None]
        cross = 4.0 * rprod[g, ga] * sin_half * sin_half
        den = far[g, ga] + cross
        if not den.all():
            i, j = np.argwhere(den == 0)[0]
            raise ValueError(
                f"probe at level {len(probes[start + i])} and anchor at "
                f"level {len(anchors[j])} lie too close to the circle: "
                "|1 - conj(z) w|^2 underflows to 0 in double precision")
        yield start, (near[g, ga] + cross) / den, mass[g, ga] / den


def _anchor_order_sums(inv: np.ndarray) -> np.ndarray:
    """Row sums of a (probes, anchors) block, added in anchor order as a
    scalar loop adds them; np.sum adds pairwise and moves the last bits."""
    if inv.shape[1] == 0:
        return np.zeros(len(inv))
    return np.cumsum(inv, axis=1)[:, -1]


def _log_inv_mass(level: int) -> float:
    """log(1/(1 - |z|^2)) at an anchor of the given level, stable at depth."""
    return level * math.log(2.0) - math.log(2.0 - 0.5 ** level)


def default_probe_addresses(seq: PointSeq) -> List[str]:
    """Sequence addresses, all their ancestors, and the root (origin anchor)."""
    probes = {""}
    for e in seq:
        for i in range(len(e.address) + 1):
            probes.add(e.address[:i])
    return sorted(probes, key=lambda a: (len(a), a))


# ---------------------------------------------------------------------------
# Carleson sums
# ---------------------------------------------------------------------------

@dataclass
class CarlesonReport:
    sup: float
    argmax: str
    box_sup: float
    box_argmax: str
    probe_count: int

    def report(self) -> dict:
        return asdict(self)


def carleson_sup(seq: PointSeq) -> CarlesonReport:
    """Sup of the invariant mass sum over probe anchors, plus the box form.

    The probes are the sequence anchors, their tree ancestors, and the
    root anchor (the origin).  The box form is exact over all grid arcs:
    only address prefixes carry mass, so scanning prefixes attains the
    global sup of mu(S(I)) / |I|.
    """
    probes = default_probe_addresses(seq)
    totals = np.empty(len(probes))
    for start, _, inv in _pair_blocks(probes, [e.address for e in seq]):
        totals[start:start + len(inv)] = _anchor_order_sums(inv)
    best, arg = -math.inf, ""
    for address, total in zip(probes, totals.tolist()):
        if total > best:
            best, arg = total, address
    # the masses inside each prefix's box, in sequence order, so that each
    # box sum adds them as a sum over the sequence does
    boxes: Dict[str, List[float]] = {}
    for e, m in zip(seq, seq.masses().tolist()):
        for i in range(len(e.address) + 1):
            boxes.setdefault(e.address[:i], []).append(m)
    box_best, box_arg = -math.inf, ""
    for a in sorted(boxes, key=lambda s: (len(s), s)):
        ratio = sum(boxes[a]) * (1 << len(a))
        if ratio > box_best:
            box_best, box_arg = ratio, a
    return CarlesonReport(sup=best, argmax=arg, box_sup=box_best,
                          box_argmax=box_arg, probe_count=len(probes))


# ---------------------------------------------------------------------------
# trace sums
# ---------------------------------------------------------------------------

def trace_sup_i(seq: PointSeq, M: DyadicMartingale, lam: float, r_levels: int = 12) -> dict:
    """Sup over probes z and radii r = 1 - 2^{-m} of the localized sum

        sum_{rho(z, z_n) < r} exp(lam (b_n - b_z)^2 / log(1/(1-r^2))) (1 - rho^2)

    with b taken from the martingale at the point's own interval, the
    probes being those of carleson_sup.  Returns the sup, where it is
    attained, and a per-radius profile.
    """
    probes = default_probe_addresses(seq)
    b_entries = np.array([M.value(e.address) for e in seq])
    log_terms = [_log_inv_mass(m) for m in range(1, r_levels + 1)]
    r2s = np.array([(1.0 - 0.5 ** m) ** 2 for m in range(1, r_levels + 1)])[:, None]
    sup, arg_probe, arg_m = -math.inf, "", 0
    by_radius = [0.0] * r_levels
    for start, rho2_rows, inv_rows in _pair_blocks(probes, [e.address for e in seq]):
        block = probes[start:start + len(rho2_rows)]
        with np.errstate(over="ignore"):
            for address, rho2, inv in zip(block, rho2_rows, inv_rows):
                lam_db2 = lam * (b_entries - M.value(address)) ** 2
                # one (r_levels, anchors) mask per probe; each radius still
                # sums its own masked array, which fixes the addition order
                masks = rho2 < r2s
                for mi in np.flatnonzero(masks.any(axis=1)).tolist():
                    mask = masks[mi]
                    total = float((np.exp(lam_db2[mask] / log_terms[mi]) * inv[mask]).sum())
                    by_radius[mi] = max(by_radius[mi], total)
                    if total > sup:
                        sup, arg_probe, arg_m = total, address, mi + 1
    return {
        "lambda": lam,
        "sup": sup,
        "argmax_probe": arg_probe,
        "argmax_r_level": arg_m,
        "finite": math.isfinite(sup),
        "by_radius": by_radius,
        "probe_count": len(probes),
    }


def trace_weak_l1(seq: PointSeq, M: DyadicMartingale, lam: float,
                  probe: str = "") -> dict:
    """Weak-L1 norm of a_n = exp(lam (b_n - b_z)^2 / log(1/(1-rho^2))) (1-rho^2)
    at the probe anchor, computed as max_i i * a_(i) over the descending
    order statistics.  Entries colliding with the probe are excluded and
    counted; the plain sum of the a_n is reported alongside.
    """
    bz = M.value(probe)
    kept = [e for e in seq if e.address != probe]
    (_, _, inv_row), = _pair_blocks([probe], [e.address for e in kept])
    values = []
    for e, inv in zip(kept, inv_row[0].tolist()):
        # log(1/(1 - rho^2)) via the quotient's parts; safe for rho near 0 or 1
        log_inv = -math.log(inv) if inv < 1.0 else 0.0
        db2 = (M.value(e.address) - bz) ** 2
        if log_inv == 0.0:
            a = math.inf if db2 > 0 and lam > 0 else inv
        else:
            x = lam * db2 / log_inv
            a = math.exp(x) * inv if x < 700 else math.inf
        values.append(a)
    values.sort(reverse=True)
    weak = 0.0
    for i, a in enumerate(values, start=1):
        weak = max(weak, i * a)
    strong = float(sum(values))
    return {
        "lambda": lam,
        "weak_l1": weak,
        "strong_sum": strong,
        "count": len(values),
        "excluded_collisions": len(seq) - len(kept),
        "finite": math.isfinite(weak),
    }


# ---------------------------------------------------------------------------
# threshold-crossing builder
# ---------------------------------------------------------------------------

def threshold_sequence(count: int, scale: float = 2.0) -> List[float]:
    """Default growth s_j = scale * j * log(j + 1), j = 1..count."""
    return [scale * j * math.log(j + 1.0) for j in range(1, count + 1)]


@dataclass
class ParentRecord:
    address: str
    value: int
    mass: float
    candidate_mass: float
    selected_mass: float
    window: float
    node_count: int
    deepest_level: int
    complete: bool
    note: str = ""

    def report(self) -> dict:
        return asdict(self)


@dataclass
class GenerationRecord:
    index: int
    threshold: float
    complete: bool
    mass: float
    node_count: int
    parents: List[ParentRecord] = field(default_factory=list)

    def report(self) -> dict:
        return asdict(self)


@dataclass
class BuildResult:
    seq: PointSeq
    thresholds: List[float]
    generations: List[GenerationRecord]
    depth_budget: int
    requested: int

    @property
    def completed_generations(self) -> int:
        return sum(1 for g in self.generations if g.complete)

    @property
    def complete(self) -> bool:
        return self.completed_generations >= self.requested

    def report(self) -> dict:
        return {
            "requested_generations": self.requested,
            "completed_generations": self.completed_generations,
            "complete": self.complete,
            "depth_budget": self.depth_budget,
            "thresholds": list(self.thresholds),
            "generations": [g.report() for g in self.generations],
            "sequence": self.seq.to_json(),
        }


def _crossing_classes(k0: int, value0: int, s: float, depth_budget: int):
    """First-crossing (level, value) classes below a parent sign path.

    The quarter-pattern value moves by +-1 once per two levels, so the
    descendants split into sign classes; a class freezes at the first
    even level where value^2 >= s * log(1/(1 - |z|^2)).  Returns the
    frozen classes as (level, value, sign_path_count) in level order
    (larger values first within a level) plus the total surviving count.

    The live values always form one run lo, lo + 2, ..., of same-parity
    integers, kept as lo and a list of counts: a step widens the run by
    one value at each end and adds neighbouring counts (Pascal's rule).
    The values that stay live, v^2 < threshold, form an interval, so the
    values that freeze sit at the two ends of the run and are cut off
    there: the top end first, largest value first, then the bottom end,
    listed from its largest value down, so each level's classes come in
    decreasing value order.
    """
    lo, counts = value0, [1]
    classes: List[Tuple[int, int, int]] = []
    k = k0
    while k + 2 <= depth_budget and counts:
        k += 2
        thr2 = s * _log_inv_mass(k)
        counts = [a + b for a, b in zip([0, *counts], [*counts, 0])]
        lo -= 1
        hi = lo + 2 * len(counts) - 2
        while counts and hi * hi >= thr2:
            classes.append((k, hi, counts.pop()))
            hi -= 2
        low = []
        while len(low) < len(counts) and lo * lo >= thr2:
            low.append((k, lo, counts[len(low)]))
            lo += 2
        del counts[:len(low)]
        classes.extend(reversed(low))
    return classes, sum(counts)


def _sign_paths(k0: int, value0: int, s: float, target_level: int, target_value: int):
    """Yield the +-1 step tuples that first cross exactly at the target."""
    t = (target_level - k0) // 2

    def rec(prefix: Tuple[int, ...], v: int):
        step = len(prefix)
        if step > 0:
            k = k0 + 2 * step
            crossed = v * v >= s * _log_inv_mass(k)
            if crossed:
                if step == t and v == target_value:
                    yield prefix
                return
            if step == t:
                return
        for sgn in (1, -1):
            yield from rec(prefix + (sgn,), v + sgn)

    yield from rec((), value0)


_PAIRS = {1: ("00", "11"), -1: ("01", "10")}


def _expand_signs(parent: str, signs: Tuple[int, ...], start: int, stop: int):
    """Quarter-digit addresses number `start..stop-1` for a sign path."""
    t = len(signs)
    for mask in range(start, stop):
        parts = [parent]
        for i, sgn in enumerate(signs):
            parts.append(_PAIRS[sgn][(mask >> (t - 1 - i)) & 1])
        yield "".join(parts)


def counterexample_build(generations: int = 4, depth_budget: int = 60,
                         scale: float = 2.0, thresholds: Optional[Sequence[float]] = None,
                         node_budget: int = 1 << 15) -> BuildResult:
    """Select nested generations of quarter-pattern crossing nodes.

    Starting from the root, each generation-j parent is explored two
    levels at a time; a descendant class freezes at the first even level
    where value^2 >= s_j * log(1/(1 - |z|^2)).  Frozen nodes, shallowest
    first, are selected until the parent has passed between a quarter
    and a half of its own mass 1 - |z|^2 to its selection.  Freezing
    makes each generation an antichain, so its boxes are disjoint.

    The construction is existential at infinite depth only: a finite
    depth budget may leave a parent short of the quarter window, in
    which case the generation is recorded as incomplete with the
    achievable crossing mass, and building stops (the result carries the
    deepest completed generation).
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    if depth_budget < 2 or depth_budget % 2 != 0:
        raise ValueError("depth budget must be a positive even level")
    s_list = list(thresholds) if thresholds is not None else threshold_sequence(generations, scale)
    if len(s_list) < generations:
        raise ValueError(f"need {generations} thresholds, got {len(s_list)}")
    if any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError("thresholds must increase")
    if any(s <= 0 for s in s_list):
        raise ValueError("thresholds must be positive")

    # masses 2^-k (2 - 2^-k) = (2^(k+1) - 1) / 4^k as integers over 4^top
    top = depth_budget + 1
    den = 1 << 2 * top

    def mass(level: int) -> int:
        return ((2 << level) - 1) << 2 * (top - level)

    parents: List[Tuple[str, int]] = [("", 0)]
    entries: List[SeqEntry] = []
    gen_records: List[GenerationRecord] = []
    for j in range(1, generations + 1):
        s = s_list[j - 1]
        records: List[ParentRecord] = []
        selected: List[Tuple[str, int]] = []
        complete = True
        # the crossing classes below a parent depend on its (level, value) only
        walks: Dict[Tuple[int, int], Tuple[list, int]] = {}
        for parent_addr, parent_val in parents:
            k0 = len(parent_addr)
            pmass = mass(k0)
            quarter, half = pmass >> 2, pmass >> 1
            if (k0, parent_val) not in walks:
                classes, _live = _crossing_classes(k0, parent_val, s, depth_budget)
                # sum of (c << (k - k0) // 2) * mass(k), in shifts only
                walks[k0, parent_val] = classes, sum(
                    ((c << (k + 1)) - c) << ((k - k0) // 2 + 2 * (top - k))
                    for k, v, c in classes)
            classes, cand = walks[k0, parent_val]
            rec = ParentRecord(
                address=parent_addr, value=parent_val, mass=pmass / den,
                candidate_mass=cand / den, selected_mass=0.0, window=0.0,
                node_count=0, deepest_level=classes[-1][0] if classes else k0,
                complete=False,
            )
            if cand < quarter:
                rec.note = ("first-crossing mass within the depth budget "
                            "falls short of the quarter window")
                records.append(rec)
                complete = False
                continue
            sel_mass = 0
            taken: List[Tuple[str, int]] = []
            for k, v, c in classes:
                if sel_mass >= quarter:
                    break
                m = mass(k)
                avail = c << ((k - k0) // 2)
                if sel_mass + m > half:
                    continue
                room = (half - sel_mass) // m
                need = -((sel_mass - quarter) // m)
                n_take = min(avail, need, room)
                if n_take <= 0:
                    continue
                if len(taken) + n_take > node_budget:
                    rec.note = "node budget exhausted during selection"
                    break
                if (k - k0) // 2 > 32:
                    rec.note = "crossing class too deep to enumerate addresses"
                    break
                got = 0
                for signs in _sign_paths(k0, parent_val, s, k, v):
                    per = 1 << len(signs)
                    take_here = min(per, n_take - got)
                    for address in _expand_signs(parent_addr, signs, 0, take_here):
                        taken.append((address, v))
                    got += take_here
                    if got >= n_take:
                        break
                sel_mass += n_take * m
            rec.selected_mass = sel_mass / den
            rec.window = sel_mass / pmass
            rec.node_count = len(taken)
            rec.complete = quarter <= sel_mass <= half
            records.append(rec)
            if not rec.complete:
                complete = False
                continue
            selected.extend(taken)
        gen_mass = sum(r.selected_mass for r in records)
        gen_records.append(GenerationRecord(
            index=j, threshold=s, complete=complete, mass=gen_mass,
            node_count=sum(r.node_count for r in records), parents=records,
        ))
        if not complete:
            break
        entries.extend(SeqEntry(a, generation=j) for a, _ in selected)
        parents = selected
    return BuildResult(
        seq=PointSeq(entries),
        thresholds=s_list[:len(gen_records)],
        generations=gen_records,
        depth_budget=depth_budget,
        requested=generations,
    )


def divergence_terms(seq: PointSeq, M: DyadicMartingale, lam: float,
                     thresholds: Sequence[float]) -> dict:
    """Per-generation lower-bound terms t_j = e^{lam s_j} * (generation mass)
    next to the actual exponential sums over each generation.

    The geometric envelope e^{lam s_j} 4^{-j} sits below t_j whenever the
    generation masses hold their 4^{-j} floor; the running sums of the
    actual terms are what diverge once lam s_j outruns j log 4.
    """
    spans = seq.generation_spans()
    gens = sorted(g for g in spans if g > 0)
    if gens and len(thresholds) < gens[-1]:
        raise ValueError("need one threshold per generation present")
    b0 = M.value("")
    rows = []
    partial = 0.0
    for j in gens:
        s = thresholds[j - 1]
        mass = 0.0
        actual = 0.0
        for i in spans[j]:
            e = seq.entries[i]
            m = float(e.mass)
            mass += m
            diff2 = (M.value(e.address) - b0) ** 2
            x = lam * diff2 / _log_inv_mass(e.level)
            actual += math.exp(x) * m if x < 700 else math.inf
        t = math.exp(lam * s) * mass
        partial += actual
        rows.append({
            "generation": j,
            "threshold": s,
            "mass": mass,
            "t": t,
            "envelope": math.exp(lam * s) * 4.0 ** (-j),
            "actual": actual,
            "partial_actual": partial,
        })
    return {"lambda": lam, "rows": rows,
            "finite": all(math.isfinite(r["actual"]) for r in rows)}
