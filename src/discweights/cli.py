"""Config-driven experiment runner: JSON reports, CSV tables, exit codes.

Every command resolves its config against a declared schema (unknown keys
are precondition failures), runs the owning module, and emits one
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
from .fixtures import bho_tree_fixture, continuous_fixture
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
    TreeWeight,
    WeightCertificate,
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


def _resolve(command: str, config: dict, schema: Dict[str, tuple]) -> dict:
    """Apply defaults and reject unknown keys; None default means required."""
    leftover = dict(config)
    out = {}
    for key, (default, required) in schema.items():
        if key in leftover:
            out[key] = leftover.pop(key)
        elif required:
            raise PreconditionError(f"{command}: config key {key!r} is required")
        else:
            out[key] = default
    if leftover:
        raise PreconditionError(
            f"{command}: unknown config keys {sorted(leftover)}")
    return out


# Largest stack of tree arrays a command may ask for, in cells: the trees
# held at once (one per grid offset for extend-continuous, else one) times
# 2^(depth+1) slots each.  2^22 float64 cells are 32 MiB per array, and a
# run keeps several arrays of that size alive, so the cap keeps a run to a
# few hundred MiB; checked before anything is allocated.
MAX_TREE_CELLS = 1 << 22


def _int_key(command: str, cfg: dict, key: str, minimum: int) -> int:
    """cfg[key] as an int (not a bool) of at least `minimum`, else exit 3."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise PreconditionError(
            f"{command}: config key {key!r} needs an integer >= {minimum}, got {value!r}")
    return value


def _check_footprint(command: str, depth: int, trees: int = 1) -> None:
    """Refuse trees x 2^(depth+1) cells above MAX_TREE_CELLS, naming the keys."""
    # the depth test first keeps a huge depth from building a huge int
    if depth >= MAX_TREE_CELLS.bit_length() or trees << (depth + 1) > MAX_TREE_CELLS:
        keys = "config key 'depth'" + ("" if trees == 1 else " with 'theta_count'")
        raise PreconditionError(
            f"{command}: {keys} asks for {trees} x 2^{depth + 1} tree cells, "
            f"over the cap of {MAX_TREE_CELLS}")


def _require_seed(command: str, cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise PreconditionError(
            f"{command}: randomized run needs a seed (config or --seed)")
    return int(cfg["seed"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_constants(cfg: dict):
    cfg = _resolve("constants", cfg, {
        "depth": (8, False), "count": (100, False),
        "p_grid": ([1.5, 2.0, 3.0], False), "sigma": (0.8, False),
        "seed": (None, True), "tol": (1e-10, False),
    })
    p_grid = [float(p) for p in cfg["p_grid"]]
    if not all(math.isfinite(p) and p > 1 for p in p_grid):
        raise PreconditionError(
            f"constants: config key 'p_grid' needs finite p > 1 throughout, got {p_grid}")
    seed = _require_seed("constants", cfg)
    depth, tol = _int_key("constants", cfg, "depth", 0), float(cfg["tol"])
    _check_footprint("constants", depth)

    unit = TreeWeight.constant(1.0, depth)
    unit_gap = max(abs(bp_constant(unit, p) - 1.0) for p in p_grid)

    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for i in range(int(cfg["count"])):
        w = random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"]))
        for p in p_grid:
            pp = p / (p - 1.0)
            bp = bp_constant(w, p)
            dual = bp_constant(w.power(-1.0 / (p - 1.0)), pp)
            gap = abs(dual - bp ** (1.0 / (p - 1.0))) / max(1.0, dual)
            worst = max(worst, gap)
            rows.append((i, p, bp, dual, gap))

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


def _run_factorize(cfg: dict):
    cfg = _resolve("factorize", cfg, {
        "source": ("fixture", False), "p": (2.0, False), "depth": (8, False),
        "count": (50, False), "sigma": (0.6, False), "seed": (None, False),
        "terms": (60, False), "residual_tol": (1e-10, False),
    })
    p = float(cfg["p"])
    if not (math.isfinite(p) and p > 1):
        raise PreconditionError(f"factorize: config key 'p' needs a finite p > 1, got {p}")
    depth = _int_key("factorize", cfg, "depth", 0)
    _check_footprint("factorize", depth)
    if cfg["source"] == "fixture":
        weights = [bho_tree_fixture(depth=depth)]
    elif cfg["source"] == "random":
        seed = _require_seed("factorize", cfg)
        rng = np.random.default_rng(seed)
        weights = [random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"]))
                   for _ in range(int(cfg["count"]))]
    else:
        raise PreconditionError(
            f"factorize: source must be 'fixture' or 'random', got {cfg['source']!r}")

    rows, instance_rows = [], []
    max_residual, failed = 0.0, 0
    for i, w in enumerate(weights):
        res = factor_bho_full(w, p, terms=int(cfg["terms"]))
        max_residual = max(max_residual, res.reconstruction_error)
        instance_rows.append((i, res.s_norm, res.reconstruction_error,
                              res.escalations, res.tail_ratio, res.via_dual))
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
                     ("tail_ratio", "last iterate movement over first"),
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


def _run_extend_dyadic(cfg: dict):
    cfg = _resolve("extend-dyadic", cfg, {
        "p": (1.0, False), "q": (2.0, False), "depth": (7, False),
        "count": (50, False), "density": (0.5, False), "sigma": (0.7, False),
        "seed": (None, True), "terms": (60, False),
    })
    p, q = float(cfg["p"]), float(cfg["q"])
    if not (math.isfinite(q) and q > 1):
        raise PreconditionError(f"extend-dyadic: config key 'q' needs a finite q > 1, got {q}")
    if not (math.isfinite(p) and p >= 1):
        raise PreconditionError(f"extend-dyadic: config key 'p' needs a finite p >= 1, got {p}")
    seed = _require_seed("extend-dyadic", cfg)
    depth = _int_key("extend-dyadic", cfg, "depth", 0)
    _check_footprint("extend-dyadic", depth)

    rng = np.random.default_rng(seed)
    rows, failed = [], 0
    worst_margin, worst_instance = -math.inf, -1
    for i in range(int(cfg["count"])):
        w = random_log_walk(depth, rng=rng, sigma=float(cfg["sigma"]))
        om = random_domain(depth, rng=rng, density=float(cfg["density"]))
        if p == 1.0:
            res = extend_b1(w, q, om)
        else:
            res = extend_bp(w, p, q, om, terms=int(cfg["terms"]))
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


_FIXTURES = ("pair_overlap", "chain_wrap", "wide_plus_thin")


def _run_extend_continuous(cfg: dict):
    cfg = _resolve("extend-continuous", cfg, {
        "fixture": ("pair_overlap", False), "p": (1.0, False), "q": (2.0, False),
        "depth": (6, False), "theta_count": (16, False),
        "family_depth": (4, False), "threads": (1, False),
        "minkowski_tol": (1e-9, False),
    })
    # "threads" stays accepted for compatibility; the offsets run serially
    p, q = float(cfg["p"]), float(cfg["q"])
    if not (math.isfinite(p) and p >= 1):
        raise PreconditionError(
            f"extend-continuous: config key 'p' needs a finite p >= 1, got {p}")
    if not (math.isfinite(q) and q > 1):
        raise PreconditionError(
            f"extend-continuous: config key 'q' needs a finite q > 1, got {q}")
    theta_count = _int_key("extend-continuous", cfg, "theta_count", 1)
    depth = _int_key("extend-continuous", cfg, "depth", 0)
    family_depth = _int_key("extend-continuous", cfg, "family_depth", 0)
    _check_footprint("extend-continuous", depth, theta_count)
    names = list(_FIXTURES) if cfg["fixture"] == "all" else [cfg["fixture"]]
    if any(n not in _FIXTURES for n in names):
        raise PreconditionError(
            f"extend-continuous: unknown fixture {cfg['fixture']!r}, "
            f"have {sorted(_FIXTURES)} or 'all'")

    certs, rows, results = [], [], {}
    for name in names:
        w, dom = continuous_fixture(name)
        res = extend_continuous(w, p, q, dom, depth=depth, theta_count=theta_count,
                                family_depth=family_depth)
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


def _run_average(cfg: dict):
    cfg = _resolve("average", cfg, {
        "arcs": (1000, False), "pairs": (1000, False), "seed": (None, True),
        "resolution_bits": (12, False), "ratio_bound": (50.0, False),
    })
    seed = _require_seed("average", cfg)
    rng = np.random.default_rng(seed)

    grid = 1 << 20
    arc_rows, sum_violations = [], 0
    bucket_ratio_max = Fraction(0)
    for i in range(int(cfg["arcs"])):
        center = Fraction(int(rng.integers(0, grid)), grid)
        length = Fraction(int(rng.integers(1, grid + 1)), grid)
        spec = theta_measure_spectrum(UnitArc(center, length))
        total = sum(spec.values())
        if total != 1:
            sum_violations += 1
        worst = max((mass / Fraction(4, 1 << k) for k, mass in spec.items()),
                    default=Fraction(0))
        bucket_ratio_max = max(bucket_ratio_max, worst)
        arc_rows.append((i, float(center), float(length), len(spec),
                         float(worst)))

    pairs = []
    for _ in range(int(cfg["pairs"])):
        r1, r2 = rng.uniform(0.05, 0.999, 2)
        a1, a2 = rng.uniform(0, 1, 2)
        pairs.append(((r1, a1), (r2, a2)))
    beta = avg_beta_check(pairs, resolution_bits=int(cfg["resolution_bits"]))
    beta_rows = [(i, beta["mean_beta_theta"][i], beta["max_beta_theta"][i],
                  float(beta["ratios"][i])) for i in range(len(pairs))]

    certs = [
        _cert("spectrum_sum_violations", sum_violations, 0.0, arcs=cfg["arcs"]),
        _cert("bucket_ratio_max", float(bucket_ratio_max), 1.0),
        _cert("avg_beta_max_ratio", beta["max_ratio"], float(cfg["ratio_bound"]),
              resolution_bits=cfg["resolution_bits"]),
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


def _run_azuma(cfg: dict):
    cfg = _resolve("azuma", cfg, {
        "kind": ("kahane", False), "depth": (None, False), "seed": (None, False),
        "eps_grid": ([0.3, 0.5, 0.7], False), "k_min": (1, False),
        "k_max": (20, False), "base": ("", False),
        "gamma_min": (0.05, False), "c_max": (10.0, False),
    })
    kind, base = cfg["kind"], str(cfg["base"])
    k_min, k_max = int(cfg["k_min"]), int(cfg["k_max"])
    if not 1 <= k_min <= k_max:
        raise PreconditionError("azuma: need 1 <= k_min <= k_max")
    spec = {"kind": kind}
    if kind == "random_pm1":
        seed = _require_seed("azuma", cfg)
        if cfg["depth"] is None:
            raise PreconditionError("azuma: random_pm1 needs a depth")
        if int(cfg["depth"]) < len(base) + k_max:
            raise PreconditionError(
                f"azuma: depth {cfg['depth']} cannot reach k_max {k_max} below "
                f"base of length {len(base)}")
        spec.update(depth=int(cfg["depth"]), seed=seed)
    elif kind not in ("random_walk", "kahane"):
        raise PreconditionError(f"azuma: unknown martingale kind {kind!r}")
    elif cfg["depth"] is not None:
        spec["depth"] = int(cfg["depth"])

    M = martingale_from_spec(spec)
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


def _sequence_from_config(spec) -> PointSeq:
    if isinstance(spec, dict) and spec.get("kind") == "radial_chain":
        return radial_chain(_int_key("trace", {"depth": 12, **spec}, "depth", 1))
    if isinstance(spec, dict) and "entries" in spec:
        return PointSeq.from_json(spec)
    raise PreconditionError(
        "sequence must be {'kind': 'radial_chain', 'depth': N} or a "
        "{'grid_theta', 'entries'} object")


def _run_trace(cfg: dict):
    cfg = _resolve("trace", cfg, {
        "sequence": ({"kind": "radial_chain", "depth": 12}, False),
        "martingale": ({"kind": "kahane"}, False),
        "lambda": (0.05, False), "r_levels": (12, False), "probe": ("", False),
    })
    lam = cfg["lambda"]
    try:
        lam_ok = not isinstance(lam, bool) and math.isfinite(lam) and lam >= 0
    except (TypeError, OverflowError):  # not a number, or an int past float range
        lam_ok = False
    if not lam_ok:
        raise PreconditionError(
            f"trace: config key 'lambda' needs a finite number >= 0, got {lam!r}")
    lam = float(lam)
    r_levels = _int_key("trace", cfg, "r_levels", 1)
    seq = _sequence_from_config(cfg["sequence"])
    try:
        M = martingale_from_spec(dict(cfg["martingale"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"trace: bad martingale spec: {exc}") from exc

    sup_rep = carleson_sup(seq)
    sup_i = trace_sup_i(seq, M, lam, r_levels=r_levels)
    weak = trace_weak_l1(seq, M, lam, probe=str(cfg["probe"]))

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


def _run_counterexample(cfg: dict):
    cfg = _resolve("counterexample", cfg, {
        "generations": (4, False), "depth_budget": (60, False),
        "scale": (2.0, False), "thresholds": (None, False),
        "lambdas": ([0.5, 1.0], False), "trace_lambda": (0.05, False),
        "node_budget": (1 << 15, False), "require_generations": (0, False),
    })
    build = counterexample_build(
        generations=int(cfg["generations"]), depth_budget=int(cfg["depth_budget"]),
        scale=float(cfg["scale"]), thresholds=cfg["thresholds"],
        node_budget=int(cfg["node_budget"]))

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


def _run_selftest(cfg: dict):
    _resolve("selftest", cfg, {})
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


COMMANDS: Dict[str, Callable[[dict], tuple]] = {
    "constants": _run_constants,
    "factorize": _run_factorize,
    "extend-dyadic": _run_extend_dyadic,
    "extend-continuous": _run_extend_continuous,
    "average": _run_average,
    "azuma": _run_azuma,
    "trace": _run_trace,
    "counterexample": _run_counterexample,
    "selftest": _run_selftest,
}


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
    results, certs, tables = COMMANDS[command](dict(config))
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
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
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
        for key in ("seed", "threads", "depth"):
            value = getattr(args, key)
            if value is not None:
                config[key] = value
        report = run(args.command, config)
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (KeyError, ValueError) as exc:
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
