"""Run-to-run spread of the benchmark's metrics.

Runs ``run.py`` once per seed for each workload, one run at a time, and
reports for every end-to-end metric its median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--trace-seeds K`` it also makes two traced
runs for each of the first K seeds and checks that every exact count
(calls, work counts, trace messages and bytes) is identical between them.

    python3 hostbench/steadiness.py --seeds 1-10 --out hostbench/steadiness.json

Run it from the root of the repository, with nothing else running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect result")
    result["wall_s"] = wall
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median,
            "min": min(values), "max": max(values)}


def exact_counts(metrics: Dict[str, dict]) -> Dict[str, float]:
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "B", "ratio")}


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report: Dict[str, object] = {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "git_sha": subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, cwd=HERE.parent).stdout.strip() or None,
        "run_seconds": BENCH["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        results = [run(workload, seed, 0) for seed in args.seeds]
        entry: Dict[str, object] = {
            "wall_s": spread([r["wall_s"] for r in results]),
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            entry[name] = {**spread(values), "bound": bounds[name],
                           "values": values}
            print(f"{workload:22s} {name:14s} median {entry[name]['median']:10.4f}"
                  f"  iqr/median {entry[name]['iqr_share']:.4f}"
                  f"  (bound {bounds[name]})", flush=True)
        identical = []
        for seed in args.seeds[: args.trace_seeds]:
            first, second = (exact_counts(run(workload, seed, 1)["metrics"])
                             for _ in range(2))
            identical.append(first == second)
            print(f"{workload:22s} seed {seed}: traced counts identical: "
                  f"{first == second}", flush=True)
        if identical:
            entry["traced_counts_identical"] = all(identical)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
