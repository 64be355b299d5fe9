"""One workload in one process: set up, run timed passes, check, trace.

Run by run.py, never directly by users.  Prints one JSON object on its
last stdout line.  With --setup-only it stops after set-up and reports
only the set-up time, so run.py can sample set-up in fresh processes.

A pass runs every operation of the workload once.  Each operation is
timed on its own (wall and process CPU time) and the checks run between
operations, outside the timed region; a pass's time is the sum over its
operations.  The first pass is checked in full and is not counted in the
times: it warms the process (the allocator's thresholds, numpy's first
calls), which otherwise makes the first pass of the dyadic workload about
30% slower than the rest.  Later passes, and the traced pass, must
reproduce the first pass's output digests, and take over its verdict when
they do.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import discweights  # noqa: E402

if not Path(discweights.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"discweights imported from {discweights.__file__}, not {ROOT / 'src'}")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Verdicts:
    """Per-operation digests and verdicts of the first pass, and the tallies."""

    def __init__(self):
        self.digest: dict = {}
        self.problems: dict = {}
        self.known: dict = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def judge(self, op, result) -> None:
        """Check the first pass's output; note whether its problems are
        exactly the operation's known fault."""
        try:
            self.problems[op.name] = op.check(result)
            self.known[op.name] = bool(self.problems[op.name]) and \
                op.known_fault is not None and op.known_fault(result)
        except Exception:
            self.problems[op.name] = [f"check raised: {traceback.format_exc(limit=3)}"]
            self.known[op.name] = False

    def record(self, op, problems: list, known: bool) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known:
            label = "known fault"
        elif op.name in self.unexpected:
            return
        else:
            label = "FAILED"
            self.unexpected.append(op.name)
        print(f"{label}: {op.name}: {'; '.join(problems)}", file=sys.stderr)


def run_pass(ops, verdicts: Verdicts, tracer=None) -> tuple:
    """One pass over the operations; returns (wall seconds, CPU seconds)."""
    wall = cpu = 0.0
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span(f"op.{op.name}"):
                    result = op.run()
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0

        known = False
        if error is not None:
            problems = [f"raised: {error}"]
        else:
            digest = op.digest(result)
            if op.name not in verdicts.digest:
                verdicts.digest[op.name] = digest
                verdicts.judge(op, result)
            if digest != verdicts.digest[op.name]:
                problems = ["output digest differs from the first pass"]
            else:
                problems, known = verdicts.problems[op.name], verdicts.known[op.name]
        del result
        verdicts.record(op, problems, known)
    return wall, cpu


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "discweights": discweights.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_root = OUT / f"{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    ops = workloads.setup(args.workload, args.seed, out_root)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    verdicts = Verdicts()
    oracle_problems = checks.oracle_self_check()
    for msg in oracle_problems:
        print(f"FAILED: oscillation oracle: {msg}", file=sys.stderr)

    passes = []
    try:
        run_pass(ops, verdicts)
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(run_pass(ops, verdicts))
            measured += passes[-1][0]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    traced_ops = workloads.setup(args.workload, args.seed, out_root)
                traced_wall, _ = run_pass(traced_ops, verdicts, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_totals()
            layers["trace.overhead_s"] = traced_wall - float(np.median([w for w, _ in passes]))
            tracer.dump(OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    print(json.dumps({
        "setup_s": setup_s,
        "passes": [{"wall_s": w, "cpu_s": c} for w, c in passes],
        "peak_rss_mb": peak_rss_mb,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "unexpected": verdicts.unexpected + (["oscillation oracle"] if oracle_problems else []),
        "layers": layers,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
