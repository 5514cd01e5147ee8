#!/usr/bin/env python3
"""Benchmark for fuzzyabduce.

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One caller runs one operation at a time (a closed loop on one core). Each
operation's output is checked against perfbench/reference.py outside the
timed region. Every time is scaled to a reference machine speed measured by
calibrate() right after it. With --trace 0 the run reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it records spans around
every timed call and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Result files and spans are written under perfbench/out/. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FRESH_IMPORTS = 15     # set-up repeats; the median is reported
GENERATIONS = 15
WARMUP_S = 2.0         # the first second after start runs at about half speed
PROCESS_RUNS = 5
#: time figures are scaled to a machine on which calibrate() takes this long
REFERENCE_CALIBRATION_S = 0.002


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and small numpy work.

    The reference machine's speed drifts by 20-40% within minutes because of
    other tenants, so wall times of identical runs spread wider than any
    useful bound. Timed right after each operation, this routine measures
    the speed of the moment; scaling each time by REFERENCE_CALIBRATION_S
    over it removes most of the drift (see README, "Machine speed").
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(100):
        x = np.sqrt(x * x + 1.0) - 0.5
    return time.perf_counter() - t0


def speed_factor(elapsed: float) -> float:
    """Multiplier taking a wall time just measured to the reference speed.

    A longer interval gets more calibration samples, one per 50 ms up to 15,
    since one 2 ms sample is a poor estimate of the speed over a second.
    """
    samples = min(15, 1 + int(elapsed / 0.05))
    return REFERENCE_CALIBRATION_S / statistics.median(calibrate() for _ in range(samples))


#: run in a fresh interpreter: the import's CPU time in the importing thread
#: and, right after it in the same process, the median of five calibrate() times
IMPORT_PROBE = ("import statistics, time\n"
                "t = time.thread_time()\n"
                "import fuzzyabduce.cli\n"
                "imported = time.thread_time() - t\n"
                "import numpy as np\n"
                + inspect.getsource(calibrate)
                + "print(imported, statistics.median(calibrate() for _ in range(5)))\n")


class Recorder:
    """Spans kept in memory: (id, parent, operation id, name, start, end, count)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.factors: list[float] = []  # speed factor after each operation
        self._last = 0

    def new_id(self) -> int:
        self._last += 1
        return self._last

    def add(self, sid, name, start, end, parent, op, count=1) -> None:
        self.spans.append((sid, parent, op, name, start, end, count))

    def per_call(self, name: str) -> float:
        """Median seconds per call of a span name, at the reference speed."""
        raw = statistics.median((s[5] - s[4]) / s[6] for s in self.spans if s[3] == name)
        return raw * statistics.median(self.factors)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.latencies: list[float] = []   # successful operations, reference speed
        self.raw: list[float] = []         # the same, as measured
        self.busy = 0.0                    # time inside operation calls, reference speed
        self.raw_busy = 0.0
        self.problems: list[str] = []      # failures and mismatches, first few kept
        self.mismatches = 0

    def note(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)


def run_op(op, tally: Tally, rec: Recorder | None = None) -> None:
    tally.attempted += 1
    root = rec.new_id() if rec else None
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        elapsed = time.perf_counter() - t0
        tally.busy += elapsed * speed_factor(elapsed)
        tally.raw_busy += elapsed
        tally.failed += 1
        tally.note(f"failed {op.kind}: {type(exc).__name__}: {exc}")
        return
    t1 = time.perf_counter()
    # the speed of the moment, taken before anything else runs, traced or not
    factor = speed_factor(t1 - t0)
    if rec:
        rec.factors.append(factor)
        rec.add(rec.new_id(), op.span, t0, t1, root, root)
        for name, count, fn in op.parts(out):
            s = time.perf_counter()
            fn()
            rec.add(rec.new_id(), name, s, time.perf_counter(), root, root, count)
        rec.add(root, f"op.{op.kind}", t0, time.perf_counter(), None, root)
    tally.busy += (t1 - t0) * factor
    tally.raw_busy += t1 - t0
    tally.latencies.append((t1 - t0) * factor)
    tally.raw.append(t1 - t0)
    try:
        op.check(out)
    except reference.Mismatch as exc:
        tally.mismatches += 1
        tally.note(f"wrong {op.kind}: {exc}")


def run_cycles(ops, seconds: float, tally: Tally, rec: Recorder | None = None) -> None:
    """Whole cycles until `seconds` have passed (at least one cycle)."""
    start = time.perf_counter()
    while True:
        for op in ops:
            run_op(op, tally, rec)
        tally.cycles += 1
        if time.perf_counter() - start >= seconds:
            return


def _op_peak_mb(op) -> float:
    # a collected heap first, so that when the collector last ran before this
    # operation does not move its peak
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            op.call()
        except Exception:  # failing operations are counted in the timed phase
            pass
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def largest_op_peak_mb(ops) -> float:
    """Highest tracemalloc peak of any one of the operations (outputs dropped)."""
    return max(_op_peak_mb(op) for op in ops)


def fresh_import_s() -> float:
    """Median time to import fuzzyabduce.cli in a fresh interpreter.

    The time is the importing thread's CPU time, which leaves out waits for
    the disk; on a quiet machine it equals the wall time to about 2%. Each
    import is scaled by calibrate() timed in the same child process right
    after it: a factor taken in this process, after the child has ended,
    follows the import's speed less well.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(FRESH_IMPORTS + 1):  # the first may still compile bytecode
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, calibration = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(times[1:])


def process_ms() -> float:
    """Median wall time of a whole `python -m fuzzyabduce.cli abduce` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "fuzzyabduce.cli", "abduce", "--problem",
            str(SRC / "fuzzyabduce" / "problems" / "temperature.json")]
    times = []
    for _ in range(PROCESS_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed_factor(elapsed))
    return statistics.median(times) * 1e3


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cores": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__}


#: per-layer metrics read from spans: name -> (home workload, span, scale)
SPAN_METRICS = {
    "inference.build_relation_ms": ("dense_grid", "inference.build_relation", 1e3),
    "inference.gmp_ms": ("dense_grid", "inference.gmp", 1e3),
    "abduction.abduce_variation_ms": ("dense_grid", "abduction.abduce_variation", 1e3),
    "abduction.abduce_certainty_ms": ("dense_grid", "abduction.abduce_certainty", 1e3),
    "abduction.check_solvability_ms": ("dense_grid", "abduction.check_solvability", 1e3),
    "oracle.enumerate_ms": ("verify_bruteforce", "oracle.enumerate_solutions", 1e3),
    "core.fuzzyset_us": ("verify_bruteforce", "core.FuzzySet", 1e6),
    "operators.property_suite_ms": ("verify_bruteforce", "operators.property_suite", 1e3),
    "operators.residuum_oracle_us": ("verify_bruteforce", "operators.residuum_oracle", 1e6),
    "cli.check_ops_ms": ("verify_bruteforce", "cli.main", 1e3),
    "workbench.load_problem_ms": ("cli_problems", "workbench.load_problem", 1e3),
    "workbench.scenario_ms": ("cli_problems", "workbench.scenario", 1e3),
    "workbench.render_ms": ("cli_problems", "workbench.render", 1e3),
    "cli.build_parser_ms": ("cli_problems", "cli.build_parser", 1e3),
}


def setup(name: str, seed: int, workdir: Path):
    import workloads

    import_s = fresh_import_s()
    times = []
    for _ in range(GENERATIONS):
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, workdir)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed_factor(elapsed))
    return workload, import_s, import_s + statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads

    workload, import_s, setup_s = setup(name, seed, workdir)
    ops = workload.cycle()
    warm, tally = Tally(), Tally()
    run_cycles(ops, WARMUP_S, warm)
    rec = Recorder() if trace else None
    run_cycles(ops, seconds, tally, rec)
    print(f"{name}: {tally.cycles} cycles, {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.mismatches + warm.mismatches} wrong", file=sys.stderr)
    for text in (warm.problems + tally.problems)[:10]:
        print(f"  {text}", file=sys.stderr)
    mismatches = warm.mismatches + tally.mismatches
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(tally.latencies) / tally.busy,
            "op_p50_ms": statistics.median(tally.latencies) * 1e3,
            "peak_mem_mb": largest_op_peak_mb(ops),
        }
        spans = None
    else:
        recorders = {name: rec}
        instances = {name: workload}
        for other, cls in workloads.WORKLOADS.items():
            if other == name:
                continue
            instances[other] = cls(seed, workdir / other)
            recorders[other] = Recorder()
            probe = Tally()
            run_cycles(instances[other].cycle(), 0, probe, recorders[other])
            mismatches += probe.mismatches
            for text in probe.problems:
                print(f"  {other}: {text}", file=sys.stderr)
        metrics = {m: recorders[home].per_call(span) * scale
                   for m, (home, span, scale) in SPAN_METRICS.items()}
        metrics["oracle.candidates_per_s"] = (
            workloads.LEVELS ** workloads.POINTS / (metrics["oracle.enumerate_ms"] / 1e3))
        metrics["abduction.peak_mb"] = largest_op_peak_mb(
            [op for op in instances["dense_grid"].cycle() if op.kind.startswith("abduce")])
        # one instance of each rule kind: under tracemalloc an enumeration takes seconds
        metrics["oracle.peak_mb"] = largest_op_peak_mb(
            instances["verify_bruteforce"].cycle()[:len(workloads.ORACLE_COMBOS)])
        metrics["cli.import_s"] = import_s
        metrics["cli.process_ms"] = process_ms()
        metrics["op_p90_ms"] = statistics.quantiles(tally.latencies, n=10)[-1] * 1e3
        metrics["traced_op_p50_ms"] = statistics.median(tally.latencies) * 1e3
        spans = {w: r.spans for w, r in recorders.items()}
    raw = {"op_p50_ms": statistics.median(tally.raw) * 1e3,
           "ops_per_s": len(tally.raw) / tally.raw_busy,
           "speed_factor": statistics.median(
               lat / r for lat, r in zip(tally.latencies, tally.raw))}
    return {"correct": mismatches == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "cycles": tally.cycles, "as_measured": raw, "spans": spans}


def smoke() -> int:
    """One untraced and one traced cycle of every workload, every check on."""
    import workloads

    info, everything_right = machine(), True
    totals = {"attempted": 0, "failed": 0}
    for name, cls in workloads.WORKLOADS.items():
        workdir = OUT / f"work-smoke-{name}-{os.getpid()}"
        try:
            ops = cls(1, workdir).cycle()
            tally, rec = Tally(), Recorder()
            run_cycles(ops, 0, tally)
            run_cycles(ops, 0, tally, rec)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        right = tally.mismatches == 0
        everything_right &= right
        totals["attempted"] += tally.attempted
        totals["failed"] += tally.failed
        print(json.dumps({"workload": name, "correct": right, "attempted": tally.attempted,
                          "failed": tally.failed, "spans": len(rec.spans),
                          "problems": tally.problems, "machine": info}))
    print(json.dumps({"correct": everything_right, **totals, "metrics": {}}))
    return 0 if everything_right else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle of every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "fuzzyabduce" / "__init__.py").is_file():
        print(f"error: no fuzzyabduce sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**line, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "cycles": result["cycles"], "as_measured": result["as_measured"],
         "machine": machine()}, indent=2) + "\n")
    if result["spans"] is not None:
        fields = ["id", "parent", "op", "name", "start", "end", "count"]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": fields, "workloads": result["spans"]}) + "\n")
    for m in wanted:
        print(f"{m['name']}: {result['metrics'][m['name']]:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
