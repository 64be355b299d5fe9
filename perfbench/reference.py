"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py

Runs perfbench/run.py once per seed 1 to 10 on every workload of
BENCHMARK.json (run length from there too) and prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound.  It also
prints the share of failed operations, which must be the same on every
run.  Then it makes one traced run per workload on seed 1 and prints its
per-layer metrics.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        results = [run_once(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            print(f"| {workload} | {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.4f} | {bound} |")
        correct = all(r["correct"] for r in results)
        print(f"| {workload} | failed/attempted | {', '.join(shares)} | | | | "
              f"correct={correct} |")

    print()
    layers = {w: run_once(w, SEEDS[0], bench["run_seconds"], 1)["metrics"] for w in workloads}
    print("| metric | " + " | ".join(workloads) + " |")
    print("| --- |" + " --- |" * len(workloads))
    for m in bench["per_layer"]:
        row = [f"{layers[w][m['name']]['value']:.4g}" for w in workloads]
        print(f"| {m['name']} ({m['unit']}) | " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
