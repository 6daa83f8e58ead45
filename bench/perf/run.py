#!/usr/bin/env python3
"""Time-to-verdict benchmark: builds perf_breakdown, primes its model cache
and runs each workload in its own process.  See bench/perf/README.md.

All workloads, N runs of T seconds each, a summary on stdout and
DIR/BENCH_perf.json:
    bench/perf/run.sh [--reps N] [--seconds T] [--seed S] [--traced] [--out DIR]
One workload, ending with one JSON line holding the metrics BENCHMARK.json
names (end-to-end with --trace 0, per-layer with --trace 1):
    bench/perf/run.sh --workload NAME --seed S --seconds T --trace 0|1

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when a workload could not be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["mnist_dd", "cifar_dd", "mnist_cf", "sweep_mnist", "service_tenants"]
SCHEMA_VERSION = 2
# A workload process is killed 60 s after its --seconds are up, but never
# sooner than RUN_TIMEOUT_S; a traced pass of the full budget takes well
# under a minute.
RUN_TIMEOUT_S = 170


class RunError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def call(cmd, timeout=None):
    """Run `cmd` with its output on stderr (stdout carries results)."""
    try:
        done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{Path(str(cmd[0])).name} timed out after {timeout} s")
    return done.returncode


def build():
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perf"
    # A configure that failed leaves a cache but no build system behind.
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        if call(["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            raise RunError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", out, "--target", "perf_breakdown",
             "-j", jobs]) != 0:
        raise RunError("build failed")
    return out / "perf_breakdown"


def prime(binary):
    """Fill the model cache, untimed; measured runs refuse to train."""
    if call([binary, "--prime", "--cache", binary.parent / "model_cache"],
            timeout=600) != 0:
        raise RunError("priming the model cache failed")


def run_workload(binary, name, seed, seconds, traced, smoke, trace_out):
    work = binary.parent / "work"
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"{name}.json"
    result.unlink(missing_ok=True)
    cmd = [binary, "--workload", name, "--seed", seed,
           "--cache", binary.parent / "model_cache", "--work", work,
           "--expected", HERE / "expected", "--out", result,
           "--seconds", seconds]
    if traced:
        cmd += ["--traced", "--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    code = call(cmd, timeout=max(RUN_TIMEOUT_S, seconds + 60))
    if code not in (0, 1) or not result.exists():
        raise RunError(f"{name} did not complete (exit {code})")
    return json.loads(result.read_text())


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def summarize(metrics):
    """One end-to-end metric over runs: each run gives one value."""
    xs = [m["value"] for m in metrics]
    q1, q3 = quartiles(xs)
    first = metrics[0]
    return {"unit": first["unit"], "better": first["better"],
            "exact": first["exact"], "median": statistics.median(xs),
            "q1": q1, "q3": q3, "samples": xs}


def host_info(binary):
    cache = {}
    cache_file = binary.parent / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"}


def print_workload(name, entry):
    print(f"{name}: {'correct' if entry['correct'] else 'INCORRECT'}, "
          f"{entry['attempted']} attempted, {entry['failed']} failed")
    for metric, m in entry["end_to_end"].items():
        print(f"  {metric:34s} {m['median']:14.6g} {m['unit']:8s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}; n={len(m['samples'])}]")
    for metric, m in entry["per_layer"].items():
        print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    if "trace_overhead" in entry:
        t = entry["trace_overhead"]
        print(f"  tracing overhead on verdict_s: {t['share']:+.1%} "
              f"(traced {t['traced_verdict_s']:.4g} s, untraced median "
              f"{t['untraced_verdict_s']:.4g} s)")
    for check in entry["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" ({check['detail']})")


def all_workloads(args):
    binary = Path(args.bin).resolve() if args.bin else build()
    prime(binary)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
           "reps": args.reps, "seconds": args.seconds,
           "budget": "smoke" if args.smoke else "full",
           "traced": args.traced, "host": host_info(binary), "workloads": {}}
    correct = True
    for name in WORKLOADS:
        # The first run also takes the traced pass.
        runs = [run_workload(binary, name, args.seed, args.seconds,
                             args.traced and i == 0, args.smoke,
                             out_dir / f"BENCH_perf.trace.{name}.json")
                for i in range(args.reps)]
        first = runs[0]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "digest": first["digest"],
                 "checks": [c for r in runs for c in r["checks"]
                            if r is first or not c["ok"]]}
        entry["end_to_end"] = {k: summarize([r["end_to_end"][k] for r in runs])
                               for k in first["end_to_end"]}
        entry["per_layer"] = first["per_layer"]
        if args.traced and entry["end_to_end"]:
            untraced = entry["end_to_end"]["verdict_s"]["median"]
            traced = first["traced_verdict_s"]
            entry["trace_overhead"] = {"traced_verdict_s": traced,
                                       "untraced_verdict_s": untraced,
                                       "share": traced / untraced - 1.0}
        doc["workloads"][name] = entry
        print_workload(name, entry)
        correct = correct and entry["correct"]
    (out_dir / "BENCH_perf.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out_dir / 'BENCH_perf.json'}")
    if args.update_expected:
        path = HERE / "expected" / f"seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        expected = json.loads(path.read_text()) if path.exists() else {}
        expected[doc["budget"]] = {name: w["digest"]
                                   for name, w in doc["workloads"].items()
                                   if w["digest"]}
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if correct else 1


def one_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    prime(binary)
    traced = args.trace == 1
    res = run_workload(binary, args.workload, args.seed,
                       0 if traced else args.seconds, traced, False,
                       binary.parent / "work" /
                       f"BENCH_perf.trace.{args.workload}.json")
    source = res["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] not in source:
            raise RunError(f"{args.workload} did not report {m['name']}")
        got = source[m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        print(f"{m['name']:34s} {metrics[m['name']]['value']:14.6g} "
              f"{got['unit']}")
    for check in res["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and end with one JSON line")
    p.add_argument("--seconds", type=int, default=25,
                   help="how long each run takes timed verdicts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=5,
                   help="runs per workload, each its own process")
    p.add_argument("--traced", action="store_true",
                   help="add the decomposition pass and the trace files")
    p.add_argument("--out", default=".", help="directory for BENCH_perf*.json")
    p.add_argument("--smoke", action="store_true",
                   help="tiny budget: every code path and check, in seconds")
    p.add_argument("--bin", help="use this perf_breakdown instead of building")
    p.add_argument("--update-expected", action="store_true",
                   help="record this run's digests in expected/seed<S>.json")
    args = p.parse_args()
    if args.smoke and "--reps" not in sys.argv:
        args.reps = 1
    if args.smoke and "--seconds" not in sys.argv:
        args.seconds = 0
    if args.reps < 1 or args.seconds < 0:
        p.error("--reps must be at least 1 and --seconds not negative")
    try:
        return one_workload(args) if args.workload else all_workloads(args)
    except RunError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
