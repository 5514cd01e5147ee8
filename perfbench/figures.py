#!/usr/bin/env python3
"""Reference figures: run the benchmark on seeds 1..10 and summarise.

    python3 perfbench/figures.py              # every workload, untraced and traced
    python3 perfbench/figures.py --trace 0    # untraced runs only

Each run lasts run_seconds from BENCHMARK.json. For every metric it prints
the median over the runs and the spread, the distance between the first and
third quartile (statistics.quantiles with n=4) as a share of the median; for
each workload also the share of failed operations and the tracing overhead
(traced minus untraced median latency). Runs are sequential. The summary is
written to perfbench/out/figures.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="0,1", help="which runs to make: 0, 1 or 0,1")
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    figures: dict = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = figures[workload] = {}
        for trace in (int(t) for t in args.trace.split(",")):
            results = [run(workload, seed, seconds, trace) for seed in SEEDS]
            if not all(r["correct"] for r in results):
                print(f"{workload}: a run reported wrong outputs", file=sys.stderr)
                return 1
            entry[f"failed_share_trace{trace}"] = sorted(
                {r["failed"] / r["attempted"] for r in results})
            for name in results[0]["metrics"]:
                entry[name] = summary([r["metrics"][name]["value"] for r in results])
                entry[name]["unit"] = results[0]["metrics"][name]["unit"]
        if "op_p50_ms" in entry and "traced_op_p50_ms" in entry:
            entry["tracing_overhead_ms"] = (entry["traced_op_p50_ms"]["median"]
                                            - entry["op_p50_ms"]["median"])
        print(f"\n{workload} (seeds 1-10, {seconds} s runs)")
        for name, value in entry.items():
            if isinstance(value, dict):
                print(f"  {name:32s} {value['median']:12.5g} {value['unit']:5s} "
                      f"spread {value['spread']:.3f}")
            else:
                print(f"  {name:32s} {value}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "figures.json").write_text(json.dumps(figures, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
