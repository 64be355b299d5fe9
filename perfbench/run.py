"""discweights benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {continuous,dyadic,martingale} \\
        --seed N --seconds S --trace {0,1}

Runs the workload in its own process with numpy's thread pools pinned to
one thread, after sampling set-up in SETUP_SAMPLES further fresh
processes.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
of BENCHMARK.json (wall_s, cpu_s, setup_s, peak_rss_mb), with --trace 1
its per-layer metrics, from one traced pass.  The environment (revision, Python, numpy,
processor count) and the per-pass figures go to
.perfbench_out/results-<workload>.json.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("continuous", "dyadic", "martingale")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure whole passes until their timed sum reaches this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARIABLES})
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = [_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES)]
    run = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  env, deadline)
    setup_samples.append(run["setup_s"])

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # 0 where the workload never enters the traced function
        metrics = {m["name"]: {"value": run["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in run["passes"]),
            "cpu_s": statistics.median(p["cpu_s"] for p in run["passes"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    result = {
        "correct": not run["unexpected"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-{args.workload}.json").write_text(json.dumps({
        "args": vars(args),
        "environment": dict(run["environment"], revision=_revision(),
                            nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0))),
        "setup_samples_s": setup_samples,
        "passes": run["passes"],
        "unexpected_failures": run["unexpected"],
        "layers": run["layers"],
        "result": result,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
