"""The benchmark workloads: seeded inputs and the operations of one pass.

An operation is one command-line run (`cli.run` plus `cli.write_artifacts`)
or one library call that returns a certified result.  Each operation
carries a digest of its output, used to show that repeated passes and the
traced pass produce the same output, and a check run outside the timed
region.  Library functions are looked up on their modules at call time, so
the tracer's wrappers apply when it is installed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from discweights import averaging, cli, extension, factorization, fixtures, martingales, weights

import checks

WORKLOADS = ("continuous", "dyadic", "martingale")

# Inputs of the oscillation operations that hit the sampled pair sup (more
# than 4096 cells).  They do not depend on the seed: these operations fail
# on every run until the sampler is replaced by an exact computation.
SAMPLED_OSCILLATION = ((12, 1), (12, 4), (13, 3))

STALL_SHORT = "first-crossing mass within the depth budget falls short of the quarter window"
STALL_BUDGET = "node budget exhausted during selection"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], list]
    # the one fault this operation is known to have, as a predicate on its
    # output; any other problem is unexpected
    known_fault: Callable[[object], bool] | None = None


@dataclass
class CliOutcome:
    status: int
    out: Path


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _certs(certificates) -> list:
    return [(c.quantity, c.bound, c.measured, c.sense) for c in certificates]


def _cli_op(name: str, command: str, config: dict, out_root: Path, check) -> Op:
    out = out_root / name

    def run():
        report = cli.run(command, config)
        cli.write_artifacts(report, out)
        return CliOutcome(0 if report.ok else 2, out)

    def digest(res):
        return hashlib.sha256((res.out / "report.json").read_bytes()).hexdigest()

    def full_check(res):
        return checks.cli_problems(command, res.status, checks.read_report(res.out)) + check(res.out)

    return Op(name, run, digest, full_check)


def _factor_op(name: str, w, p: float) -> Op:
    return Op(
        name,
        run=lambda: factorization.factor_bho_full(w, p),
        digest=lambda r: _digest(r.w1.values, r.w2.values, _certs(r.certificates), r.escalations),
        check=lambda r: checks.factorization_problems(w, p, r, via_dual=p > 2),
    )


def _extension_digest(r) -> str:
    return _digest(r.weight.values, _certs(r.certificates), sorted(r.diagnostics.items()))


# ---------------------------------------------------------------------------
# continuous
# ---------------------------------------------------------------------------

def continuous(seed: int, out_root: Path) -> list:
    """The offset-averaged pipeline on every bundled region, p = 1 and 2.

    The inputs are the bundled fixtures; the seed sets the order of the
    operations only.  One command-line run at the command's defaults
    (16 offsets) keeps the artifact path in the pass.
    """
    ops = []
    for name in fixtures.CONTINUOUS_FIXTURES:
        w, region = fixtures.continuous_fixture(name)
        for p in (1.0, 2.0):
            ops.append(Op(
                f"extend_continuous.{name}.p{p:g}",
                run=lambda w=w, region=region, p=p: averaging.extend_continuous(
                    w, p, 2.0, region, depth=6, theta_count=64, family_depth=4),
                digest=lambda r: _digest(json.dumps(r.report(), sort_keys=True),
                                         r.theta_csv_rows(),
                                         *[a.extension.weight.values for a in r.artifacts]),
                check=lambda r, name=name, p=p: checks.continuous_problems(name, r, p),
            ))
    ops.append(_cli_op("cli.extend-continuous", "extend-continuous", {}, out_root,
                       lambda out: checks.continuous_cli_problems(out, 1.0)))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# dyadic
# ---------------------------------------------------------------------------

def _extend_op(name: str, w, domain, p: float, oscillation_oracle: bool = False) -> Op:
    def run():
        if p == 1.0:
            return extension.extend_b1(w, 2.0, domain)
        return extension.extend_bp(w, p, 2.0, domain)

    def check(r):
        out = checks.extension_problems(w, domain, r)
        if oscillation_oracle:
            out += checks.extension_oscillation_problems(r)
        return out

    return Op(name, run, _extension_digest, check)


def _oscillation_op(depth: int, seed: int) -> Op:
    w = weights.random_log_walk(depth, seed=seed, sigma=0.6)
    exact = functools.cache(lambda: checks.exact_l_const(w.values, depth))
    return Op(
        f"osc_constants.d{depth}.s{seed}",
        run=lambda: weights.osc_constants(w),
        digest=repr,
        check=lambda r: checks.oscillation_problems(r, exact()),
        known_fault=lambda r: checks.is_sampled_under_measure(r, exact()),
    )


def dyadic(seed: int, out_root: Path) -> list:
    """Tree work only: constants, factorization, dyadic extension, oscillation."""
    rng = np.random.default_rng(seed)

    def child_seed():
        return int(rng.integers(1 << 31))

    ops = [
        _cli_op("cli.selftest", "selftest", {}, out_root, lambda out: []),
        _cli_op("cli.constants", "constants", {"seed": child_seed(), "count": 100, "depth": 8},
                out_root, lambda out: checks.constants_problems(out, 100, (1.5, 2.0, 3.0))),
        _cli_op("cli.factorize", "factorize", {}, out_root, lambda out: []),
    ]
    for p, count in ((2.0, 50), (3.0, 20)):
        for i in range(count):
            w = weights.random_log_walk(8, rng=rng, sigma=0.6)
            ops.append(_factor_op(f"factor_bho_full.p{p:g}.{i}", w, p))
    for p, depth in ((1.0, 7), (2.0, 8)):
        for i in range(50):
            w = weights.random_log_walk(depth, rng=rng, sigma=0.7)
            domain = weights.random_domain(depth, rng=rng, density=0.5)
            ops.append(_extend_op(f"extend.p{p:g}.d{depth}.{i}", w, domain, p))
    w = weights.random_log_walk(11, rng=rng, sigma=0.6)
    domain = weights.random_domain(11, rng=rng, density=0.5)
    ops.append(_extend_op("extend.p2.d11", w, domain, 2.0, oscillation_oracle=True))
    ops += [_oscillation_op(depth, s) for depth, s in SAMPLED_OSCILLATION]
    return ops


# ---------------------------------------------------------------------------
# martingale
# ---------------------------------------------------------------------------

def random_addresses(rng, count: int = 100) -> list:
    """`count` addresses below distinct level-7 nodes, lengths 7 to 11 in
    equal shares, so every seed gives nearly the same number of prefixes
    (about 420), the probes of the trace sums."""
    tops = rng.choice(128, size=count, replace=False)
    return sorted(format(int(top), "07b") + "".join("01"[b] for b in rng.integers(0, 2, i % 5))
                  for i, top in enumerate(tops))


def martingale(seed: int, out_root: Path) -> list:
    """Deviation counts, trace sums, the sequence builder, offset spectra."""
    rng = np.random.default_rng(seed)
    pm1_seed = int(rng.integers(1 << 31))
    addresses = random_addresses(rng)
    average_seed = int(rng.integers(1 << 31))
    chain = ["0" * j for j in range(1, 13)]
    sequence = {"grid_theta": "0",
                "entries": [{"address": a, "generation": 0} for a in addresses]}

    def pm1_check(out):
        return checks.azuma_problems(out, "random_pm1", martingales.random_pm1(20, pm1_seed))

    def azuma(kind, config, check):
        return _cli_op(f"cli.azuma.{kind}", "azuma", config, out_root, check)

    def counterexample(name, config, completed, note):
        return _cli_op(f"cli.counterexample.{name}", "counterexample", config, out_root,
                       lambda out: checks.counterexample_problems(out, completed, note))

    return [
        azuma("kahane", {"kind": "kahane", "k_max": 60},
              lambda out: checks.azuma_problems(out, "kahane")),
        azuma("random_walk", {"kind": "random_walk", "k_max": 60},
              lambda out: checks.azuma_problems(out, "random_walk")),
        azuma("random_pm1", {"kind": "random_pm1", "depth": 20, "k_max": 20, "seed": pm1_seed},
              pm1_check),
        _cli_op("cli.trace.default", "trace", {}, out_root,
                lambda out: checks.trace_problems(out, chain, Fraction(0))),
        _cli_op("cli.trace.random", "trace", {"sequence": sequence}, out_root,
                lambda out: checks.trace_problems(out, addresses, Fraction(0))),
        counterexample("default", {}, 1, STALL_SHORT),
        counterexample("scale", {"scale": 0.7}, 4, ""),
        counterexample("budget", {"depth_budget": 3000}, 1, STALL_BUDGET),
        _cli_op("cli.average", "average", {"seed": average_seed}, out_root,
                checks.spectrum_problems),
    ]


def setup(workload: str, seed: int, out_root: Path) -> list:
    return {"continuous": continuous, "dyadic": dyadic, "martingale": martingale}[workload](
        seed, out_root)
