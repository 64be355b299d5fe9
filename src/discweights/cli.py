"""Config-driven experiment runner: JSON reports, CSV tables, exit codes.

Every command resolves its config against a declared schema of typed keys
(unknown or bad keys are precondition failures), runs its module and emits one
report.json plus CSV side tables into the output directory.  The report
is deterministic for a fixed (config, seed, version): wall-clock time is
kept out of it and written to run_meta.json instead.

Exit codes: 0 on success, 2 when a certificate in the report failed, 3
on precondition failures (malformed config, missing seed, bad flags).
"""

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .averaging import avg_beta_check, extend_continuous, theta_measure_spectrum
from .extension import extend_b1, extend_bp, power_maximal_b1
from .factorization import factor_bho_full
from .fixtures import CONTINUOUS_FIXTURES, bho_tree_fixture, continuous_fixture
from .geometry import UnitArc
from .martingales import (
    PointSeq,
    azuma_fit,
    azuma_table,
    bloch_seminorm,
    carleson_sup,
    counterexample_build,
    divergence_terms,
    kahane,
    martingale_from_spec,
    radial_chain,
    random_pm1,
    random_walk,
    trace_sup_i,
    trace_weak_l1,
)
from .weights import (
    _NOT_POSITIVE,
    TreeWeight,
    WeightCertificate,
    _b1_values,
    _bad_rows,
    _bp_values,
    _floats,
    _mask,
    bp_constant,
    random_domain,
    random_log_walk,
)

EXIT_OK = 0
EXIT_CERT_VIOLATION = 2
EXIT_PRECONDITION = 3


class PreconditionError(ValueError):
    """Config or parameter outside a command's declared preconditions."""


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, Path):
        return str(x)
    return x


@dataclass
class Table:
    """One CSV side table: ordered (name, description) columns plus rows."""

    columns: List[Tuple[str, str]]
    rows: List[Sequence]

    def header(self) -> List[dict]:
        return [{"name": n, "description": d} for n, d in self.columns]


@dataclass
class RunReport:
    command: str
    config: dict
    version: str
    results: dict
    certificates: List[dict]
    tables: Dict[str, Table]
    wall_clock_s: float

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.certificates)

    def report_payload(self) -> dict:
        # wall clock stays out: identical (config, seed, version) must
        # produce byte-identical report files
        return _jsonable({
            "command": self.command,
            "config": self.config,
            "version": self.version,
            "ok": self.ok,
            "certificates": self.certificates,
            "results": self.results,
            "tables": {
                name: {"file": f"{name}.csv", "columns": t.header(),
                       "row_count": len(t.rows)}
                for name, t in sorted(self.tables.items())
            },
        })

    def report_json(self) -> str:
        return json.dumps(self.report_payload(), sort_keys=True, indent=2) + "\n"


def _cert(quantity: str, measured, bound, sense: str = "le", **inputs) -> dict:
    return WeightCertificate(quantity=quantity, bound=float(bound),
                             measured=float(measured), sense=sense,
                             inputs=inputs).as_dict()


def _flag_cert(quantity: str, ok: bool, **inputs) -> dict:
    """Boolean condition as a certificate: measured 0 means it holds."""
    return _cert(quantity, 0.0 if ok else 1.0, 0.0, **inputs)


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

# A spec checks one config value: (test, need), where test(value) says
# whether the value is acceptable and `need` says what is, for the error.
Spec = Tuple[Callable[[object], bool], str]
Schema = Dict[str, Tuple[object, Spec]]


def _int(lo: int) -> Spec:
    """An integer (not a bool) of at least lo."""
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and v >= lo), f"an integer >= {lo}"


def _number(lo: float, strict: bool = False) -> Spec:
    """A finite number (not a bool) above lo, or of at least lo."""
    def test(v):
        try:
            return (isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) and (v > lo if strict else v >= lo))
        except OverflowError:  # an int past float range
            return False
    return test, f"a finite number {'>' if strict else '>='} {lo:g}"


def _list(spec: Spec) -> Spec:
    test, need = spec
    return ((lambda v: isinstance(v, list) and len(v) > 0 and all(map(test, v))),
            f"a non-empty list, each {need}")


def _choice(*values: str) -> Spec:
    return (lambda v: isinstance(v, str) and v in values), f"one of {list(values)}"


def _optional(spec: Spec) -> Spec:
    test, need = spec
    return (lambda v: v is None or test(v)), f"null or {need}"


_DIGITS: Spec = (lambda v: isinstance(v, str) and set(v) <= {"0", "1"},
                 "a string of 0/1 digits")
_OBJECT: Spec = (lambda v: isinstance(v, dict), "a JSON object")
_finite = _number(-math.inf)[0]


def _fraction_text(v) -> bool:
    try:
        Fraction(v)
    except (ValueError, ZeroDivisionError):
        return False
    return True


_THETA: Spec = (lambda v: _finite(v) or (isinstance(v, str) and _fraction_text(v)),
                "a finite number or a fraction string such as '1/3'")
_LEVELS: Spec = (
    lambda v: isinstance(v, list) and len(v) > 0
    and all(isinstance(lv, list) and all(map(_finite, lv)) for lv in v),
    "a non-empty list of lists of finite numbers")
_ENTRIES: Spec = (
    lambda v: isinstance(v, list) and len(v) > 0 and all(
        isinstance(e, dict) and set(e) <= {"address", "generation"}
        and _DIGITS[0](e.get("address")) and _int(0)[0](e.get("generation", 0)) for e in v),
    "a non-empty list of objects, each with a 0/1 digit 'address' and an optional "
    "integer 'generation' >= 0")
# a seed is optional in the schema; randomized runs require it (_require_seed)
_SEED = _optional(_int(0))


def _resolve(command: str, config: dict, schema: Schema) -> dict:
    """Reject unknown keys, apply defaults, and check every value against
    its key's spec; the only place a config key is checked by itself."""
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise PreconditionError(f"{command}: unknown config keys {unknown}")
    out = {}
    for key, (default, (test, need)) in schema.items():
        value = config.get(key, default)
        if not test(value):
            raise PreconditionError(
                f"{command}: config key {key!r} needs {need}, got {value!r}")
        out[key] = value
    return out


# Largest footprint a command may ask for, in cells (tree slots, offsets or
# address digits; each caller says what it counts).  2^22 float64 cells are
# 32 MiB per array, and a run keeps several arrays of that size alive, so
# the cap keeps a run to a few hundred MiB; checked before any allocation.
MAX_TREE_CELLS = 1 << 22


def _check_footprint(command: str, keys: str, count: int, bits: int = 0) -> None:
    """Refuse count x 2^bits cells above MAX_TREE_CELLS, naming the keys."""
    # the bits test first keeps a huge exponent from building a huge int
    if bits >= MAX_TREE_CELLS.bit_length() or count << bits > MAX_TREE_CELLS:
        size = f"{count} x 2^{bits}" if bits else f"{count}"
        raise PreconditionError(
            f"{command}: config key {keys} asks for {size} cells, "
            f"over the cap of {MAX_TREE_CELLS}")


def _require_seed(command: str, cfg: dict) -> int:
    if cfg["seed"] is None:
        raise PreconditionError(
            f"{command}: randomized run needs a seed (config or --seed)")
    return cfg["seed"]


COMMANDS: Dict[str, Callable[[dict], tuple]] = {}
SCHEMAS: Dict[str, Schema] = {}


def _command(name: str, schema: Schema):
    """Register a runner under `name`; run() resolves its config first."""
    def register(fn):
        COMMANDS[name], SCHEMAS[name] = fn, schema
        return fn
    return register


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# weights per stack of the constants command: enough to share the per-call
# overhead of the tree kernels, few enough to keep the stacks' temporaries
# near one tree's
CONSTANTS_CHUNK = 16


def _constants_chunk(depth: int, count: int) -> int:
    """Rows per stack of the constants command: at most CONSTANTS_CHUNK and
    count, and no more than fit under MAX_TREE_CELLS, but at least 1 (a
    depth whose one tree is over the cap is refused as before)."""
    return max(1, min(CONSTANTS_CHUNK, count, MAX_TREE_CELLS >> (depth + 1)))


def _stack_bp(values: np.ndarray, p: float, depth: int) -> list:
    """bp_constant(w, p) of every row w of a stack of full trees, one float
    per row; a row not positive and finite raises as TreeWeight does."""
    if _bad_rows(values).any():
        raise ValueError(_NOT_POSITIVE)
    full = _mask(None, depth)
    return _floats(_b1_values(values, full, depth) if p == 1
                   else _bp_values(values, p, full, depth))


@_command("constants", {
    "depth": (8, _int(0)), "count": (100, _int(1)),
    "p_grid": ([1.5, 2.0, 3.0], _list(_number(1, strict=True))), "sigma": (0.8, _number(0)),
    "seed": (None, _SEED), "tol": (1e-10, _number(0)),
})
def _run_constants(cfg: dict):
    p_grid = [float(p) for p in cfg["p_grid"]]
    seed = _require_seed("constants", cfg)
    depth, tol, count = cfg["depth"], float(cfg["tol"]), cfg["count"]
    chunk = _constants_chunk(depth, count)
    _check_footprint("constants", "'depth'", chunk, depth + 1)

    unit = TreeWeight.constant(1.0, depth)
    unit_gap = max(abs(bp_constant(unit, p) - 1.0) for p in p_grid)

    # the weights are drawn in order, a stack of `chunk` at a time, and each
    # row's constants are bitwise its one-tree bp_constant
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for start in range(0, count, chunk):
        stack = np.stack([random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"])).values
                          for _ in range(min(chunk, count - start))])
        per_p = [(p, _stack_bp(stack, p, depth),
                  _stack_bp(stack ** (-1.0 / (p - 1.0)), p / (p - 1.0), depth)) for p in p_grid]
        for r in range(len(stack)):
            for p, bps, duals in per_p:
                bp, dual = bps[r], duals[r]
                gap = abs(dual - bp ** (1.0 / (p - 1.0))) / max(1.0, dual)
                worst = max(worst, gap)
                rows.append((start + r, p, bp, dual, gap))

    certs = [
        _cert("unit_weight_constant_gap", unit_gap, 0.0, p_grid=p_grid),
        _cert("duality_relative_gap_max", worst, tol, count=cfg["count"]),
    ]
    tables = {"constants": Table(
        columns=[("instance", "index of the random weight"),
                 ("p", "exponent of the box constant"),
                 ("bp", "measured B_p constant of the weight"),
                 ("bp_dual", "B_{p'} constant of w^{-1/(p-1)}"),
                 ("duality_gap", "relative gap between the dual routes")],
        rows=rows)}
    results = {"count": cfg["count"], "depth": depth, "p_grid": p_grid,
               "unit_weight_gap": unit_gap, "max_duality_gap": worst}
    return results, certs, tables


@_command("factorize", {
    "source": ("fixture", _choice("fixture", "random")), "p": (2.0, _number(1, strict=True)),
    "depth": (8, _int(0)), "count": (50, _int(1)), "sigma": (0.6, _number(0)),
    "seed": (None, _SEED), "terms": (60, _int(1)), "residual_tol": (1e-10, _number(0)),
})
def _run_factorize(cfg: dict):
    p, depth = float(cfg["p"]), cfg["depth"]
    if cfg["source"] == "fixture":
        _check_footprint("factorize", "'depth'", 1, depth + 1)
        weights = [bho_tree_fixture(depth=depth)]
    else:
        _check_footprint("factorize", "'depth' with 'count'", cfg["count"], depth + 1)
        rng = np.random.default_rng(_require_seed("factorize", cfg))
        weights = [random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"]))
                   for _ in range(cfg["count"])]

    rows, instance_rows = [], []
    max_residual, failed = 0.0, 0
    for i, w in enumerate(weights):
        res = factor_bho_full(w, p, terms=cfg["terms"])
        max_residual = max(max_residual, res.reconstruction_error)
        instance_rows.append((i, res.s_norm, res.reconstruction_error,
                              res.escalations, res.tail_ratio, res.terms_used, res.via_dual))
        for c in res.certificates:
            rows.append((i, c.quantity, c.measured, c.bound, c.passed))
            failed += 0 if c.passed else 1

    certs = [
        _cert("reconstruction_residual_max", max_residual,
              float(cfg["residual_tol"]), instances=len(weights)),
        _cert("instance_certificates_failed", failed, 0.0),
    ]
    tables = {
        "instances": Table(
            columns=[("instance", "index of the factored weight"),
                     ("s_norm", "restricted maximal operator norm bound used"),
                     ("residual", "max relative gap |w - w1 w2^{1-p}| / w"),
                     ("escalations", "norm-bound escalations during iteration"),
                     ("tail_ratio",
                      "max over the domain of the first omitted series term (u = 1 there)"),
                     ("terms_used", "series terms summed after u, at most terms"),
                     ("via_dual", "whether the dual route (p > 2) was taken")],
            rows=instance_rows),
        "certificates": Table(
            columns=[("instance", "index of the factored weight"),
                     ("quantity", "certified inequality"),
                     ("measured", "measured value"),
                     ("bound", "pinned bound"),
                     ("passed", "measured within the bound")],
            rows=rows),
    }
    results = {"source": cfg["source"], "p": p, "instances": len(weights),
               "max_residual": max_residual, "failed_certificates": failed}
    return results, certs, tables


@_command("extend-dyadic", {
    "p": (1.0, _number(1)), "q": (2.0, _number(1, strict=True)), "depth": (7, _int(0)),
    "count": (50, _int(1)), "density": (0.5, _number(0)), "sigma": (0.7, _number(0)),
    "seed": (None, _SEED), "terms": (60, _int(1)),
})
def _run_extend_dyadic(cfg: dict):
    p, q = float(cfg["p"]), float(cfg["q"])
    seed = _require_seed("extend-dyadic", cfg)
    depth = cfg["depth"]
    _check_footprint("extend-dyadic", "'depth'", 1, depth + 1)

    rng = np.random.default_rng(seed)
    rows, failed = [], 0
    worst_margin, worst_instance = -math.inf, -1
    for i in range(cfg["count"]):
        w = random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"]))
        om = random_domain(depth, rng=rng, density=float(cfg["density"]))
        if p == 1.0:
            res = extend_b1(w, q, om)
        else:
            res = extend_bp(w, p, q, om, terms=cfg["terms"])
        for c in res.certificates:
            rows.append((i, c.quantity, c.measured, c.bound, c.sense, c.passed))
            failed += 0 if c.passed else 1
            margin = (c.measured - c.bound) if c.sense == "le" else (c.bound - c.measured)
            if margin > worst_margin:
                worst_margin, worst_instance = margin, i

    certs = [_cert("instance_certificates_failed", failed, 0.0,
                   count=cfg["count"], p=p, q=q)]
    tables = {"certificates": Table(
        columns=[("instance", "index of the random (weight, domain) pair"),
                 ("quantity", "certified inequality"),
                 ("measured", "measured value"),
                 ("bound", "pinned bound"),
                 ("sense", "le certifies measured <= bound, ge the reverse"),
                 ("passed", "measured within the bound")],
        rows=rows)}
    results = {"p": p, "q": q, "instances": cfg["count"],
               "failed_certificates": failed,
               "worst_margin": worst_margin, "worst_instance": worst_instance}
    return results, certs, tables


@_command("extend-continuous", {
    "fixture": ("pair_overlap", _choice(*CONTINUOUS_FIXTURES, "all")), "p": (1.0, _number(1)),
    "q": (2.0, _number(1, strict=True)), "depth": (6, _int(0)),
    "theta_count": (16, _int(1)), "family_depth": (4, _int(0)),
    "minkowski_tol": (1e-9, _number(0)),
})
def _run_extend_continuous(cfg: dict):
    p, q = float(cfg["p"]), float(cfg["q"])
    depth, theta_count = cfg["depth"], cfg["theta_count"]
    _check_footprint("extend-continuous", "'depth' with 'theta_count'", theta_count, depth + 1)
    _check_footprint("extend-continuous", "'family_depth' with 'theta_count'",  # box sums per arc
                     theta_count * (cfg["family_depth"] + 1), cfg["family_depth"] + 1)
    names = list(CONTINUOUS_FIXTURES) if cfg["fixture"] == "all" else [cfg["fixture"]]

    certs, rows, results = [], [], {}
    for name in names:
        w, dom = continuous_fixture(name)
        res = extend_continuous(w, p, q, dom, depth=depth, theta_count=theta_count,
                                family_depth=cfg["family_depth"])
        finite = all(math.isfinite(v) for v in res.constants.values())
        certs.append(_flag_cert(f"{name}:constants_finite", finite))
        certs.append(_cert(f"{name}:log_minkowski_margin",
                           res.constants["log_minkowski_margin"],
                           float(cfg["minkowski_tol"])))
        certs.append(_flag_cert(f"{name}:per_theta_ok", res.ok,
                                theta_count=cfg["theta_count"]))
        results[name] = res.report()
        for theta, quantity, bound, measured in res.theta_csv_rows():
            rows.append((name, theta, quantity, measured, bound))

    tables = {"per_theta": Table(
        columns=[("fixture", "bundled continuous fixture name"),
                 ("theta", "grid offset in turns"),
                 ("quantity", "certified inequality of the per-offset extension"),
                 ("measured", "measured value"),
                 ("bound", "pinned bound")],
        rows=rows)}
    return results, certs, tables


@_command("average", {
    "arcs": (1000, _int(1)), "pairs": (1000, _int(1)), "seed": (None, _SEED),
    "ratio_bound": (50.0, _number(0, strict=True)),
})
def _run_average(cfg: dict):
    seed = _require_seed("average", cfg)
    rng = np.random.default_rng(seed)

    grid = 1 << 20
    arc_rows, sum_violations = [], 0
    bucket_ratio_max = Fraction(0)
    for i in range(cfg["arcs"]):
        center = Fraction(int(rng.integers(0, grid)), grid)
        length = Fraction(int(rng.integers(1, grid + 1)), grid)
        spec = theta_measure_spectrum(UnitArc(center, length))
        # every mass is an integer c over q: check and rank those integers
        q = length.denominator
        counts = {k: mass.numerator * (q // mass.denominator) for k, mass in spec.items()}
        if sum(counts.values()) != q:
            sum_violations += 1
        worst = Fraction(max((c << k for k, c in counts.items()), default=0), q << 2)
        bucket_ratio_max = max(bucket_ratio_max, worst)
        arc_rows.append((i, float(center), float(length), len(spec),
                         float(worst)))

    pairs = []
    for _ in range(cfg["pairs"]):
        r1, r2 = rng.uniform(0.05, 0.999, 2)
        a1, a2 = rng.uniform(0, 1, 2)
        pairs.append(((r1, a1), (r2, a2)))
    beta = avg_beta_check(pairs)
    beta_rows = [(i, beta["mean_beta_theta"][i], beta["max_beta_theta"][i],
                  float(beta["ratios"][i])) for i in range(len(pairs))]

    certs = [
        _cert("spectrum_sum_violations", sum_violations, 0.0, arcs=cfg["arcs"]),
        _cert("bucket_ratio_max", float(bucket_ratio_max), 1.0),
        _cert("avg_beta_max_ratio", beta["max_ratio"], float(cfg["ratio_bound"])),
    ]
    tables = {
        "arcs": Table(
            columns=[("arc", "index of the random arc"),
                     ("center", "arc center in turns"),
                     ("length", "arc length in turns"),
                     ("levels", "number of grid levels carrying mass"),
                     ("max_bucket_ratio", "largest bucket mass over 4*2^-k")],
            rows=arc_rows),
        "beta_pairs": Table(
            columns=[("pair", "index of the random disc pair"),
                     ("mean_beta_theta", "offset average of the grid distance"),
                     ("max_beta_theta", "largest grid distance over offsets"),
                     ("ratio", "averaged grid distance over 1 + hyperbolic")],
            rows=beta_rows),
    }
    results = {"arcs": cfg["arcs"], "pairs": cfg["pairs"],
               "sum_violations": sum_violations,
               "bucket_ratio_max": float(bucket_ratio_max),
               "max_ratio": beta["max_ratio"],
               "mean_ratio": beta["mean_ratio"]}
    return results, certs, tables


@_command("azuma", {
    "kind": ("kahane", _choice("kahane", "random_walk", "random_pm1")),
    "depth": (None, _optional(_int(1))), "seed": (None, _SEED),
    "eps_grid": ([0.3, 0.5, 0.7], _list(_number(0, strict=True))), "k_min": (1, _int(1)),
    "k_max": (20, _int(1)), "base": ("", _DIGITS),
    "gamma_min": (0.05, _number(0)), "c_max": (10.0, _number(0, strict=True)),
})
def _run_azuma(cfg: dict):
    kind, base, depth = cfg["kind"], cfg["base"], cfg["depth"]
    k_min, k_max = cfg["k_min"], cfg["k_max"]
    if k_min > k_max:
        raise PreconditionError(
            f"azuma: config key 'k_min' needs to be <= k_max {k_max}, got {k_min}")
    if k_max > 1023:
        # the fit and its envelope take 2^k as a float
        raise PreconditionError(
            f"azuma: config key 'k_max' needs to be <= 1023 (2^k_max as a float), got {k_max}")
    spec = {"kind": kind, "depth": depth}
    if kind == "random_pm1":
        spec["seed"] = _require_seed("azuma", cfg)
    if depth is not None and depth < len(base) + k_max:
        raise PreconditionError(
            f"azuma: config key 'depth' {depth} cannot reach k_max {k_max} "
            f"below base of length {len(base)}")
    M = _martingale("azuma", spec)
    rows = azuma_table(M, list(cfg["eps_grid"]), range(k_min, k_max + 1), base)
    fit = azuma_fit(rows)
    violations = sum(1 for r in rows if r.count > fit.bound(r.eps, r.k) * (1 + 1e-9))

    certs = [
        _cert("fitted_gamma", fit.gamma, float(cfg["gamma_min"]), sense="ge",
              points=fit.points),
        _cert("fitted_c", fit.c, float(cfg["c_max"])),
        _cert("envelope_violations", violations, 0.0),
    ]
    table_rows = [(r.eps, r.k, r.count, r.total, fit.bound(r.eps, r.k))
                  for r in rows]
    tables = {"counts": Table(
        columns=[("eps", "deviation threshold per unit depth"),
                 ("k", "relative depth below the base interval"),
                 ("count", "exact number of intervals with |M_J - M_I| > eps k"),
                 ("total", "number of intervals at that depth (2^k)"),
                 ("fitted_bound", "C 2^k exp(-gamma eps^2 k) at the fitted constants")],
        rows=table_rows)}
    results = {"kind": kind, "gamma": fit.gamma, "c": fit.c,
               "points": fit.points, "rows": len(rows)}
    return results, certs, tables


# The keys of a martingale object, per kind; each kind's `depth` is the
# deepest level its values are defined at.
MARTINGALE_SCHEMAS: Dict[str, Schema] = {
    "random_walk": {"depth": (None, _optional(_int(0)))},
    "kahane": {"depth": (None, _optional(_int(0)))},
    "random_pm1": {"depth": (None, _int(1)), "seed": (0, _int(0))},
    "materialized": {"values": (None, _LEVELS), "depth": (None, _optional(_int(0)))},
}


def _martingale(command: str, spec: dict):
    """Check a martingale object against its kind's schema, then build it."""
    kind = spec.get("kind")
    test, need = _choice(*MARTINGALE_SCHEMAS)
    if not test(kind):
        raise PreconditionError(f"{command}: config key 'kind' needs {need}, got {kind!r}")
    cfg = _resolve(command, {k: v for k, v in spec.items() if k != "kind"},
                   MARTINGALE_SCHEMAS[kind])
    if kind == "random_pm1":
        # random_pm1 materializes every level, 2^(depth+1) - 1 values
        _check_footprint(command, "'depth'", 1, cfg["depth"] + 1)
    if kind == "materialized" and cfg["depth"] not in (None, len(cfg["values"]) - 1):
        raise PreconditionError(
            f"{command}: config key 'depth' {cfg['depth']} differs from the depth "
            f"{len(cfg['values']) - 1} of 'values'")
    return martingale_from_spec({"kind": kind, **cfg})


def _sequence_from_config(spec: dict) -> PointSeq:
    if spec.get("kind") == "radial_chain":
        depth = _resolve("trace: sequence", spec, {
            "kind": ("radial_chain", _choice("radial_chain")), "depth": (12, _int(1))})["depth"]
        # the chain's addresses hold depth (depth + 1) / 2 digits
        _check_footprint("trace: sequence", "'depth'", depth * (depth + 1) // 2)
        return radial_chain(depth)
    if "entries" in spec:
        return PointSeq.from_json(_resolve("trace: sequence", spec, {
            "grid_theta": (0, _THETA), "entries": (None, _ENTRIES)}))
    raise PreconditionError(
        "sequence must be {'kind': 'radial_chain', 'depth': N} or a "
        "{'grid_theta', 'entries'} object")


@_command("trace", {
    "sequence": ({"kind": "radial_chain", "depth": 12}, _OBJECT),
    "martingale": ({"kind": "kahane"}, _OBJECT),
    "lambda": (0.05, _number(0)), "r_levels": (12, _int(1)), "probe": ("", _DIGITS),
})
def _run_trace(cfg: dict):
    lam, r_levels = float(cfg["lambda"]), cfg["r_levels"]
    if r_levels > 53:
        # past m = 53 the radius 1 - 2^-m rounds to 1.0
        raise PreconditionError(
            f"trace: config key 'r_levels' needs to be <= 53 (1 - 2^-r_levels as a float), "
            f"got {r_levels}")
    seq = _sequence_from_config(cfg["sequence"])
    M = _martingale("trace: martingale", cfg["martingale"])

    sup_rep = carleson_sup(seq)
    sup_i = trace_sup_i(seq, M, lam, r_levels=r_levels)
    weak = trace_weak_l1(seq, M, lam, probe=cfg["probe"])

    certs = [
        _flag_cert("carleson_sup_finite", math.isfinite(sup_rep.sup)),
        _flag_cert("trace_sup_finite", sup_i["finite"], **{"lambda": lam}),
        _flag_cert("weak_l1_finite", weak["finite"], **{"lambda": lam}),
    ]
    radius_rows = [(m + 1, 1.0 - 0.5 ** (m + 1), sup_i["by_radius"][m])
                   for m in range(r_levels)]
    tables = {"by_radius": Table(
        columns=[("r_level", "radius index m"),
                 ("r", "radius 1 - 2^-m"),
                 ("sup", "largest localized trace sum at that radius")],
        rows=radius_rows)}
    results = {"points": len(seq), "lambda": lam,
               "carleson": sup_rep.report(),
               "trace_sup": {k: v for k, v in sup_i.items() if k != "by_radius"},
               "weak_l1": weak}
    return results, certs, tables


@_command("counterexample", {
    "generations": (4, _int(1)), "depth_budget": (60, _int(2)),
    "scale": (2.0, _number(0, strict=True)),
    "thresholds": (None, _optional(_list(_number(0, strict=True)))),
    "lambdas": ([0.5, 1.0], _list(_number(0))), "trace_lambda": (0.05, _number(0)),
    "node_budget": (1 << 15, _int(1)), "require_generations": (0, _int(0)),
})
def _run_counterexample(cfg: dict):
    build = counterexample_build(
        generations=cfg["generations"], depth_budget=cfg["depth_budget"],
        scale=float(cfg["scale"]), thresholds=cfg["thresholds"],
        node_budget=cfg["node_budget"])

    window_bad = sum(
        1 for g in build.generations if g.complete
        for p in g.parents if not 0.25 <= p.window <= 0.5)
    floor_bad = sum(
        1 for g in build.generations if g.complete and g.mass < 4.0 ** -g.index)

    certs = [
        _cert("completed_generations", build.completed_generations,
              float(cfg["require_generations"]), sense="ge",
              requested=cfg["generations"]),
        _cert("window_violations", window_bad, 0.0),
        _cert("generation_mass_floor_violations", floor_bad, 0.0),
    ]

    gen_rows = [(g.index, g.threshold, g.complete, g.mass, g.node_count)
                for g in build.generations]
    parent_rows = [(g.index, p.address, p.value, p.mass, p.candidate_mass,
                    p.selected_mass, p.window, p.node_count, p.complete, p.note)
                   for g in build.generations for p in g.parents]
    seq_rows = [(e.address, e.generation, e.level) for e in build.seq]

    div_rows = []
    results = {"build": build.report()}
    lam_list = [float(v) for v in cfg["lambdas"]]
    if len(build.seq):
        K = kahane()
        for lam in lam_list:
            out = divergence_terms(build.seq, K, lam, build.thresholds)
            bad = sum(1 for row in out["rows"] if row["t"] < row["envelope"])
            certs.append(_cert(f"envelope_violations_lambda_{lam:g}", bad, 0.0))
            for row in out["rows"]:
                div_rows.append((lam, row["generation"], row["threshold"],
                                 row["mass"], row["t"], row["envelope"],
                                 row["actual"], row["partial_actual"]))
        sup_rep = carleson_sup(build.seq)
        weak = trace_weak_l1(build.seq, K, float(cfg["trace_lambda"]))
        certs.append(_flag_cert("carleson_sup_finite",
                                math.isfinite(sup_rep.sup)))
        certs.append(_flag_cert("weak_l1_finite", weak["finite"],
                                **{"lambda": cfg["trace_lambda"]}))
        results["carleson"] = sup_rep.report()
        results["weak_l1"] = weak

    tables = {
        "generations": Table(
            columns=[("generation", "builder generation index"),
                     ("threshold", "crossing threshold s_j"),
                     ("complete", "all parents reached the quarter window"),
                     ("mass", "total invariant mass selected"),
                     ("node_count", "nodes selected")],
            rows=gen_rows),
        "parents": Table(
            columns=[("generation", "builder generation index"),
                     ("address", "parent node digits"),
                     ("value", "martingale value at the parent"),
                     ("mass", "parent invariant mass 1 - |z|^2"),
                     ("candidate_mass", "first-crossing mass within the budget"),
                     ("selected_mass", "mass actually selected"),
                     ("window", "selected over parent mass"),
                     ("node_count", "children selected"),
                     ("complete", "window landed in [1/4, 1/2]"),
                     ("note", "why selection stopped, when it did")],
            rows=parent_rows),
        "sequence": Table(
            columns=[("address", "selected node digits"),
                     ("generation", "generation of the node"),
                     ("level", "tree depth of the node")],
            rows=seq_rows),
        "divergence": Table(
            columns=[("lambda", "exponential rate"),
                     ("generation", "builder generation index"),
                     ("threshold", "crossing threshold s_j"),
                     ("mass", "generation invariant mass"),
                     ("t", "e^{lambda s_j} times the generation mass"),
                     ("envelope", "geometric floor e^{lambda s_j} 4^-j"),
                     ("actual", "exponential sum over the generation"),
                     ("partial_actual", "running total of the actual sums")],
            rows=div_rows),
    }
    return results, certs, tables


def _selftest_checks():
    """Small deterministic invariant suite; every check is a certificate."""
    K, W = kahane(), random_walk()

    def quarter_rows():
        want = [[0.0, 0.0], [1.0, -1.0, -1.0, 1.0],
                [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
                [2.0, 0.0, 0.0, 2.0, 0.0, -2.0, -2.0, 0.0,
                 0.0, -2.0, -2.0, 0.0, 2.0, 0.0, 0.0, 2.0]]
        return sum(K.level_values(n).tolist() != want[n - 1] for n in range(1, 5))

    def walk_pairs():
        return sum(W.value("0" + "1" * (k - 1)) != k - 2
                   or W.value("1" + "0" * (k - 1)) != -(k - 2)
                   for k in range(2, 13))

    def unit_bp():
        unit = TreeWeight.constant(1.0, 6)
        return max(abs(bp_constant(unit, p) - 1.0) for p in (1.5, 2.0, 3.0))

    def duality():
        w = random_log_walk(6, seed=12345, sigma=0.8)
        lhs = bp_constant(w.power(-1.0), 2.0)
        rhs = bp_constant(w, 2.0)
        return abs(lhs - rhs) / rhs

    def power_maximal():
        w = random_log_walk(6, seed=23456, sigma=1.2)
        _, cert = power_maximal_b1(w, 0.5)
        return cert.measured - cert.bound

    def spectrum():
        out = theta_measure_spectrum(UnitArc(Fraction(1, 2), Fraction(1, 5)))
        want = {0: Fraction(0), 1: Fraction(1, 5),
                2: Fraction(2, 5), 3: Fraction(2, 5)}
        return 0.0 if out == want and sum(out.values()) == 1 else 1.0

    def factor_residual():
        return factor_bho_full(bho_tree_fixture(depth=6), 2.0).reconstruction_error

    def extension_agreement():
        w = random_log_walk(6, seed=34567, sigma=0.7)
        om = random_domain(6, seed=45678, density=0.5)
        res = extend_b1(w, 2.0, om)
        agree = next(c for c in res.certificates
                     if c.quantity == "agreement_on_domain")
        return agree.measured - agree.bound

    def seminorm():
        return abs(bloch_seminorm(K, 10) - 2.0)

    def midpoint():
        random_pm1(8, seed=0).check_midpoint_law()
        return 0.0

    return [
        ("kahane_levels_frozen", quarter_rows, 0.0),
        ("walk_adjacent_pair_values", walk_pairs, 0.0),
        ("unit_weight_bp_gap", unit_bp, 0.0),
        ("duality_gap", duality, 1e-10),
        ("power_maximal_margin", power_maximal, 0.0),
        ("theta_spectrum_frozen", spectrum, 0.0),
        ("factorization_residual", factor_residual, 1e-10),
        ("extension_agreement_margin", extension_agreement, 0.0),
        ("kahane_seminorm_gap", seminorm, 0.0),
        ("midpoint_law", midpoint, 0.0),
    ]


@_command("selftest", {})
def _run_selftest(cfg: dict):
    certs, rows = [], []
    for name, check, bound in _selftest_checks():
        measured = float(check())
        certs.append(_cert(name, measured, bound))
        rows.append((name, measured, bound, measured <= bound))
    tables = {"selftest": Table(
        columns=[("check", "invariant exercised"),
                 ("measured", "measured value"),
                 ("bound", "pinned bound"),
                 ("passed", "measured within the bound")],
        rows=rows)}
    return {"checks": len(rows)}, certs, tables


# ---------------------------------------------------------------------------
# runner and persistence
# ---------------------------------------------------------------------------

def run(command: str, config: Optional[dict] = None) -> RunReport:
    """Execute one command against its config; certificate failures do
    not raise, they surface through report.ok."""
    if command not in COMMANDS:
        raise PreconditionError(
            f"unknown command {command!r}; have {sorted(COMMANDS)}")
    if config is None:
        config = {}
    if not isinstance(config, dict):
        raise PreconditionError("config must be a JSON object")
    start = time.perf_counter()
    results, certs, tables = COMMANDS[command](_resolve(command, config, SCHEMAS[command]))
    wall = time.perf_counter() - start
    return RunReport(command=command, config=_jsonable(config),
                     version=__version__, results=results,
                     certificates=certs, tables=tables, wall_clock_s=wall)


def write_artifacts(report: RunReport, out_dir: Path) -> List[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    path = out_dir / "report.json"
    path.write_text(report.report_json())
    written.append(path)

    for name, table in sorted(report.tables.items()):
        cpath = out_dir / f"{name}.csv"
        with open(cpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([n for n, _ in table.columns])
            for row in table.rows:
                writer.writerow([_jsonable(v) for v in row])
        written.append(cpath)

    meta = out_dir / "run_meta.json"
    meta.write_text(json.dumps({
        "wall_clock_s": report.wall_clock_s,
        "written": [p.name for p in written],
    }, sort_keys=True, indent=2) + "\n")
    written.append(meta)
    return written


class _Parser(argparse.ArgumentParser):
    """Argument errors are precondition failures (exit 3, not argparse's 2)."""

    def error(self, message):
        raise PreconditionError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="discweights",
        description="Dyadic weight laboratory: run one experiment command "
                    "and write report.json plus CSV tables.")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="experiment to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with the experiment config")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for randomized experiments")
    parser.add_argument("--depth", type=int, default=None,
                        help="depth override where the command takes one")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = {}
        if args.config is not None:
            try:
                config = json.loads(Path(args.config).read_text())
            except FileNotFoundError:
                raise PreconditionError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise PreconditionError(f"malformed config {args.config}: {exc}")
            if not isinstance(config, dict):
                raise PreconditionError("config must be a JSON object")
        for key in ("seed", "depth"):
            value = getattr(args, key)
            if value is not None:
                config[key] = value
        report = run(args.command, config)
    except (KeyError, ValueError) as exc:  # PreconditionError is a ValueError
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    written = write_artifacts(report, args.out)
    status = "ok" if report.ok else "certificate violation"
    failed = [c["quantity"] for c in report.certificates if not c["passed"]]
    line = f"{report.command}: {status} ({len(report.certificates)} certificates)"
    if failed:
        line += f"; failed: {', '.join(failed)}"
    print(line)
    print(f"wrote {written[0]}")
    return EXIT_OK if report.ok else EXIT_CERT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
