"""Output checks for the benchmark operations.

Each function returns a list of problems; an empty list means the output
passed.  The checks recompute quantities apart from the program (closed
forms, exact rational sums, an independent oscillation oracle, complex
float invariants) or test properties the method must have; none of them
compares against stored copies of earlier output.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from discweights.averaging import theta_measure_spectrum
from discweights.geometry import UnitArc
from discweights.weights import random_domain, random_log_walk

RECON_TOL = 1e-10


# ---------------------------------------------------------------------------
# tree weights
# ---------------------------------------------------------------------------

def exact_l_const(values: np.ndarray, depth: int, mask=None) -> float:
    """sup over cell pairs of |log w(a) - log w(b)| / (1 + beta(a, b)), exactly.

    beta(a, b) is the larger level of the pair minus the level of their
    common ancestor u.  For fixed u and a level cap L the pairs with common
    ancestor u and both levels <= L split into u or its left subtree against
    u or its right subtree, so their largest gap is a max minus a min over
    two sides; dividing by 1 + L - level(u) never overstates a pair (its own
    larger level is at most L) and meets it at L = its larger level.  Work
    is O(N depth), with no pair list.
    """
    logv = np.log(values)
    if mask is None:
        mask = np.ones(len(values), dtype=bool)
    hi_by_level, lo_by_level = [], []
    for t in range(depth + 1):
        cells = slice(1 << t, 1 << (t + 1))
        hi_by_level.append(np.where(mask[cells], logv[cells], -np.inf))
        lo_by_level.append(np.where(mask[cells], logv[cells], np.inf))
    best = 0.0
    for level in range(depth + 1):
        n = 1 << level
        hi = [hi_by_level[level].copy(), hi_by_level[level].copy()]
        lo = [lo_by_level[level].copy(), lo_by_level[level].copy()]
        for cap in range(level, depth + 1):
            if cap > level:
                h = hi_by_level[cap].reshape(n, 2, -1).max(axis=2)
                m = lo_by_level[cap].reshape(n, 2, -1).min(axis=2)
                for side in (0, 1):
                    np.maximum(hi[side], h[:, side], out=hi[side])
                    np.minimum(lo[side], m[:, side], out=lo[side])
            gap = float(np.max(np.maximum(hi[0] - lo[1], hi[1] - lo[0])))
            if math.isfinite(gap):
                best = max(best, gap / (1 + cap - level))
    return best


def brute_l_const(values: np.ndarray, depth: int, mask=None) -> float:
    """The same supremum over an explicit list of all cell pairs."""
    cells = [(k, j) for k in range(depth + 1) for j in range(1 << k)
             if mask is None or mask[(1 << k) + j]]
    logs = [math.log(values[(1 << k) + j]) for k, j in cells]
    best = 0.0
    for a, (ka, ja) in enumerate(cells):
        for b in range(a + 1, len(cells)):
            kb, jb = cells[b]
            top = min(ka, kb)
            common = top - ((ja >> (ka - top)) ^ (jb >> (kb - top))).bit_length()
            beta = max(ka, kb) - common
            best = max(best, abs(logs[a] - logs[b]) / (1 + beta))
    return best


def oracle_self_check() -> list:
    """The oracle against the explicit pair list on small trees."""
    out = []
    for seed in range(6):
        depth = 3 + seed % 4
        w = random_log_walk(depth, seed=seed, sigma=0.8)
        mask = random_domain(depth, seed=100 + seed, density=0.4).mask if seed % 2 else None
        fast, slow = exact_l_const(w.values, depth, mask), brute_l_const(w.values, depth, mask)
        if abs(fast - slow) > 1e-12 * max(1.0, slow):
            out.append(f"oscillation oracle {fast!r} != pair list {slow!r} at depth {depth}")
    return out


def _failed_certs(certificates) -> list:
    return [c.quantity for c in certificates if not c.passed]


def factorization_problems(w, p: float, res, via_dual: bool) -> list:
    out = []
    recon = res.w1.values[1:] * res.w2.values[1:] ** (1.0 - p)
    err = float(np.max(np.abs(recon / w.values[1:] - 1.0)))
    if not err <= RECON_TOL:
        out.append(f"reconstruction w1 w2^(1-p) = w off by {err:.3e}")
    if res.via_dual != via_dual:
        out.append(f"via_dual is {res.via_dual}, expected {via_dual}")
    if _failed_certs(res.certificates):
        out.append(f"certificates failed: {_failed_certs(res.certificates)}")
    return out


def extension_problems(w, domain, res) -> list:
    out = []
    mask = domain.mask
    if not np.array_equal(res.weight.values[mask], w.values[mask]):
        out.append("extension differs from the weight on the domain")
    if _failed_certs(res.certificates):
        out.append(f"certificates failed: {_failed_certs(res.certificates)}")
    return out


def extension_oscillation_problems(res) -> list:
    """The extension's reported oscillation rate against the exact oracle."""
    big = res.weight
    exact = exact_l_const(big.values, big.depth)
    got = res.diagnostics["l_const_extension"]
    if abs(got - exact) > 1e-12 * max(1.0, exact):
        return [f"oscillation rate of the extension {got!r}, exact {exact!r}"]
    return []


def oscillation_problems(report, exact: float) -> list:
    """The measured side of a certificate must be the exact supremum."""
    if report.exact and abs(report.l_const - exact) <= 1e-12 * max(1.0, exact):
        return []
    route = "exact" if report.exact else "sampled"
    return [f"l_const {report.l_const!r} ({route}, {report.pairs} pairs) "
            f"against exact {exact!r}"]


def is_sampled_under_measure(report, exact: float) -> bool:
    """The known fault of `osc_constants`: above `pair_limit` cells the pair
    sup is sampled, and a sample can only fall short of the supremum."""
    return not report.exact and report.l_const <= exact * (1 + 1e-12)


def _jensen_problems(name: str, constants: dict, p: float) -> list:
    out = []
    key = "continuous_b1" if p == 1 else "continuous_bp"
    if not constants[key] >= 1.0 - 1e-12:
        out.append(f"{name}: survey constant {constants[key]!r} below 1")
    if not constants["log_minkowski_margin"] <= 1e-9:
        out.append(f"{name}: log-Minkowski margin {constants['log_minkowski_margin']!r} over 1e-9")
    if not all(math.isfinite(v) for v in constants.values()):
        out.append(f"{name}: non-finite constant in {constants}")
    return out


def continuous_problems(name: str, res, p: float) -> list:
    out = _jensen_problems(name, res.constants, p)
    if not res.ok:
        out.append(f"{name}: a per-offset certificate failed")
    for art in res.artifacts:
        mask = art.domain.mask
        if not np.array_equal(art.extension.weight.values[mask], art.restriction.values[mask]):
            out.append(f"{name}: extension at offset {art.theta} differs on the domain")
        if art.factorization is not None:
            out += [f"{name} offset {art.theta}: {msg}" for msg in factorization_problems(
                art.extension.weight, p, art.factorization, via_dual=p > 2)]
    return out


# ---------------------------------------------------------------------------
# command line artifacts
# ---------------------------------------------------------------------------

def read_report(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


def read_table(out_dir: Path, name: str) -> list:
    with open(Path(out_dir) / f"{name}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def cli_problems(command: str, status: int, report: dict) -> list:
    out = []
    if status != 0:
        out.append(f"{command}: exit status {status}, expected 0")
    if report["command"] != command:
        out.append(f"report is for {report['command']!r}")
    bad = [c["quantity"] for c in report["certificates"] if not c["passed"]]
    if bad:
        out.append(f"{command}: certificates failed: {bad}")
    return out


def constants_problems(out_dir: Path, count: int, p_grid) -> list:
    rows = read_table(out_dir, "constants")
    out = []
    if len(rows) != count * len(p_grid):
        out.append(f"constants table has {len(rows)} rows")
    for row in rows:
        p, bp, dual = float(row["p"]), float(row["bp"]), float(row["bp_dual"])
        direct = bp ** (1.0 / (p - 1.0))
        if abs(dual - direct) > RECON_TOL * max(1.0, dual):
            out.append(f"dual identity fails for instance {row['instance']} at p={p}")
    return out


def continuous_cli_problems(out_dir: Path, p: float) -> list:
    report = read_report(out_dir)
    out = []
    for name, res in report["results"].items():
        out += _jensen_problems(name, res["constants"], p)
    for row in read_table(out_dir, "per_theta"):
        if row["quantity"] == "agreement_on_domain" and float(row["measured"]) != 0.0:
            out.append(f"{row['fixture']} offset {row['theta']}: agreement {row['measured']}")
    return out


# -- deviation counts -------------------------------------------------------

def _over(eps: Fraction, k: int, gap: int) -> bool:
    return abs(Fraction(gap)) > eps * k


def closed_form_count(kind: str, eps: Fraction, k: int) -> int:
    """Deviation count below the root from binomial coefficients.

    random_walk: the value at depth k is 2j - k for j ones.  kahane: the
    value after m = k // 2 completed digit pairs is 2a - m for a agreeing
    pairs, each pair choice having two digit patterns, and an odd k adds
    one free digit.
    """
    if kind == "random_walk":
        return sum(math.comb(k, j) for j in range(k + 1) if _over(eps, k, 2 * j - k))
    m = k // 2
    return (1 << (k - m)) * sum(math.comb(m, a) for a in range(m + 1) if _over(eps, k, 2 * a - m))


def recount_from_levels(martingale, eps: Fraction, k: int) -> int:
    """Deviation count of a materialized martingale with an exact threshold."""
    vals = martingale.level_values(k) - martingale.value("")
    ints = vals.astype(np.int64)
    if not np.array_equal(ints, vals):
        raise ValueError("random_pm1 levels are not integers")
    return int(np.count_nonzero(np.abs(ints) * eps.denominator > eps.numerator * k))


def azuma_problems(out_dir: Path, kind: str, martingale=None) -> list:
    report = read_report(out_dir)
    gamma, c = report["results"]["gamma"], report["results"]["c"]
    out = []
    for row in read_table(out_dir, "counts"):
        # the command reads eps decimally, so "0.3" means exactly 3/10
        eps, k, count = Fraction(row["eps"]), int(row["k"]), int(row["count"])
        if martingale is None:
            want = closed_form_count(kind, eps, k)
        else:
            want = recount_from_levels(martingale, eps, k)
        if count != want:
            out.append(f"{kind}: count {count} at eps={eps}, k={k}; recount gives {want}")
        envelope = c * 2.0 ** k * math.exp(-gamma * float(eps) ** 2 * k)
        if count > envelope * (1 + 1e-9):
            out.append(f"{kind}: count {count} over the fitted envelope {envelope!r} at k={k}")
    return out


# -- point sequences ----------------------------------------------------------

def _mass(level: int) -> Fraction:
    d = Fraction(1, 1 << level)
    return d * (2 - d)


def _anchor(address: str, grid_theta: Fraction) -> complex:
    level = len(address)
    idx = int(address, 2) if address else 0
    angle = float((grid_theta + (idx + Fraction(1, 2)) / (1 << level)) % 1)
    return (1.0 - 0.5 ** level) * cmath.exp(2j * math.pi * angle)


def carleson_problems(addresses: list, grid_theta: Fraction, carleson: dict) -> list:
    """Box sums in exact rationals; invariant masses from complex points.

    The complex recomputation is skipped for sequences deeper than level
    24, where 1 - |z| loses too many digits in double precision.
    """
    out = []
    # masses 2^-L (2 - 2^-L) as integers over the common denominator 4^deep
    deep = max(len(a) for a in addresses)
    box: dict = {}
    for a in addresses:
        level = len(a)
        mass = ((2 << level) - 1) << (2 * (deep - level))
        for i in range(level + 1):
            box[a[:i]] = box.get(a[:i], 0) + mass
    box = {prefix: total << len(prefix) for prefix, total in box.items()}
    best = Fraction(max(box.values()), 1 << (2 * deep))
    if abs(float(best) - carleson["box_sup"]) > 1e-12 * float(best):
        out.append(f"box sup {carleson['box_sup']!r}, exact {float(best)!r}")
    if Fraction(box[carleson["box_argmax"]], 1 << (2 * deep)) != best:
        out.append(f"box argmax {carleson['box_argmax']!r} does not attain the sup")

    if max(len(a) for a in addresses) <= 24:
        z = np.array([_anchor(a, grid_theta) for a in addresses])
        probes = sorted(box)
        zp = np.array([_anchor(a, grid_theta) for a in probes])
        inv = ((1 - np.abs(zp[:, None]) ** 2) * (1 - np.abs(z[None, :]) ** 2)
               / np.abs(1 - np.conj(zp[:, None]) * z[None, :]) ** 2)
        sums = inv.sum(axis=1)
        sup = float(sums.max())
        if abs(sup - carleson["sup"]) > 1e-9 * sup:
            out.append(f"invariant mass sup {carleson['sup']!r}, complex recount {sup!r}")
    return out


def weak_problems(weak: dict) -> list:
    if weak["weak_l1"] <= weak["strong_sum"] * (1 + 1e-12):
        return []
    return [f"weak-L1 {weak['weak_l1']!r} exceeds the strong sum {weak['strong_sum']!r}"]


def trace_problems(out_dir: Path, addresses: list, grid_theta: Fraction) -> list:
    results = read_report(out_dir)["results"]
    return (carleson_problems(addresses, grid_theta, results["carleson"])
            + weak_problems(results["weak_l1"]))


# -- threshold-crossing builder -------------------------------------------------

_LN2 = math.log(2.0)


def first_crossing_mass(level0: int, value0: int, s: float, depth_budget: int) -> Fraction:
    """Invariant mass of the nodes below a parent that first cross s.

    Every two levels the quarter-pattern value moves by +1 (two agreeing
    digit pairs) or -1 (two differing ones); a node stops at the first even
    level k with value^2 >= s log(1 / (1 - |z|^2)).  Counts are of nodes,
    so each step doubles them per branch.
    """
    live = {value0: 1}
    mass = Fraction(0)
    k = level0
    while k + 2 <= depth_budget and live:
        k += 2
        threshold = s * (k * _LN2 - math.log(2.0 - 0.5 ** k))
        nxt: dict = {}
        for v, count in live.items():
            for step in (1, -1):
                nxt[v + step] = nxt.get(v + step, 0) + 2 * count
        live = {}
        crossed = 0
        for v, count in nxt.items():
            if v * v >= threshold:
                crossed += count
            else:
                live[v] = count
        mass += crossed * _mass(k)
    return mass


def _quarter_value(address: str) -> int:
    return sum(1 if address[i] == address[i + 1] else -1 for i in range(0, len(address) - 1, 2))


def counterexample_problems(out_dir: Path, completed: int, stall_note: str) -> list:
    report = read_report(out_dir)
    build = report["results"]["build"]
    out = []
    if build["completed_generations"] != completed:
        out.append(f"completed {build['completed_generations']} generations, expected {completed}")
    notes = {p["note"] for g in build["generations"] for p in g["parents"]}
    if stall_note and stall_note not in notes:
        out.append(f"no parent stalled with {stall_note!r}; notes {sorted(notes)}")
    entries = build["sequence"]["entries"]
    for g in build["generations"]:
        s = g["threshold"]
        for p in g["parents"]:
            if g["complete"] and not 0.25 <= p["window"] <= 0.5:
                out.append(f"generation {g['index']} parent {p['address']!r}: window {p['window']}")
            want = float(first_crossing_mass(len(p["address"]), p["value"], s, build["depth_budget"]))
            if abs(want - p["candidate_mass"]) > 1e-12 * max(want, 1e-300):
                out.append(f"generation {g['index']} parent {p['address']!r}: candidate mass "
                           f"{p['candidate_mass']!r}, first-crossing count {want!r}")
        chosen = sorted(e["address"] for e in entries if e["generation"] == g["index"])
        if any(b.startswith(a) for a, b in zip(chosen, chosen[1:])):
            out.append(f"generation {g['index']} is not an antichain")
        for a in chosen:
            level = len(a)
            if _quarter_value(a) ** 2 < s * (level * _LN2 - math.log(2.0 - 0.5 ** level)):
                out.append(f"selected node {a!r} is below its threshold")
    if entries:
        addresses = [e["address"] for e in entries]
        theta = Fraction(build["sequence"]["grid_theta"])
        out += carleson_problems(addresses, theta, report["results"]["carleson"])
        out += weak_problems(report["results"]["weak_l1"])
    return out


# -- offset spectra -------------------------------------------------------------

def spectrum_problems(out_dir: Path) -> list:
    """Spectra of the run's arcs sum to exactly 1 and match the nested
    containment chances max(0, 1 - 2^m |I|) level by level."""
    out = []
    for row in read_table(out_dir, "arcs"):
        length = Fraction(float(row["length"]))
        spec = theta_measure_spectrum(UnitArc(Fraction(float(row["center"])), length))
        if sum(spec.values()) != 1 or min(spec.values()) < 0:
            out.append(f"arc {row['arc']}: spectrum sums to {sum(spec.values())}")
        if len(spec) != int(row["levels"]):
            out.append(f"arc {row['arc']}: {len(spec)} levels, table says {row['levels']}")
        chance = [Fraction(1)]
        while chance[-1] > 0:
            m = len(chance)
            chance.append(max(Fraction(0), 1 - (1 << m) * length))
        buckets = sorted(a - b for a, b in zip(chance, chance[1:]) if a > b)
        if buckets != sorted(v for v in spec.values() if v > 0):
            out.append(f"arc {row['arc']}: spectrum {spec} against containment chances")
    return out
