#!/usr/bin/env python3
"""The wdm benchmark: build, run one workload, print its metrics.

Run from the root of a checkout:

    python3 wdmbench/run.py --workload gsl_study --seed 1 --seconds 30 --trace 0

builds the wdm library, the `wdm` CLI and the `wdmbench` program (Release)
into $CARGO_TARGET_DIR/wdmbench (default .bench_build/wdmbench), runs the
workload and prints the program's output. The last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1, exactly as
BENCHMARK.json names them. The exit code is non-zero when any output was
incorrect, a metric is missing, or the build failed.

Steadiness mode runs every workload several times with different seeds
and prints the median and quartiles of each end-to-end metric, flagging
spreads above a third of the metric's bound (and above the bound):

    python3 wdmbench/run.py --steady 5 --seed 100 [--workloads a,b]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the two targets; returns the wdmbench path."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        log("wdmbench: no wdm sources at", ROOT)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "wdmbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wdmbench",
                  "wdm_cli", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("wdmbench: build step failed:", " ".join(cmd))
            sys.exit(3)
    return os.path.join(build_dir, "wdmbench")


def declared():
    """The parsed BENCHMARK.json, or None without the file."""
    try:
        with open(BENCHMARK) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return spec


def run_once(exe, workload, seed, seconds, trace):
    """Runs wdmbench; returns (exit code, stdout lines)."""
    work = os.path.join(os.path.abspath(".bench_work"),
                        "%s-%d" % (workload, os.getpid()))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work,
           "--oracle", os.path.join(HERE, "oracle", "gsl_study.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("wdmbench: run timed out")
        return 5, []
    return r.returncode, r.stdout.strip().splitlines()


def single(args):
    exe = build()
    rc, lines = run_once(exe, args.workload, args.seed, args.seconds,
                         args.trace)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return rc or 4
    for line in lines[:-1]:
        print(line)
    spec = declared()
    if spec is not None:
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            log("wdmbench: metrics missing:", ", ".join(missing))
            return 4
        result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    return rc


def steady(args):
    spec = declared()
    if spec is None:
        log("wdmbench: steadiness mode needs BENCHMARK.json")
        return 2
    exe = build()
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bad = 0
    for w in workloads:
        values = {}
        info = {}
        for k in range(args.steady):
            rc, lines = run_once(exe, w, args.seed + k, seconds, 0)
            if rc != 0 or not lines:
                log("wdmbench: %s seed %d failed (exit %d)"
                    % (w, args.seed + k, rc))
                bad += 1
                continue
            info = json.loads(lines[-2]).get("info", {}) if len(lines) > 1 else {}
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, m in info.get("serve_mix", {}).items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, %s s, build %s)" % (
            w, len(values.get("setup_s", [])), seconds,
            info.get("build", {}).get("git", "?")))
        for m in spec["end_to_end"] + [{"name": n, "bound": None}
                                        for n in values if n not in
                                        [e["name"] for e in spec["end_to_end"]]]:
            v = values.get(m["name"])
            if not v or len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = ""
            if m["bound"] is not None and m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag = "  OVER BOUND %.3f" % m["bound"]
                    bad += 1
                elif spread > m["bound"] / 3:
                    flag = "  over a third of bound %.3f" % m["bound"]
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (m["name"], q2, q1, q3, spread, flag))
            if args.verbose:
                print("  %-16s runs %s" % ("", " ".join("%.4g" % x for x in v)))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="runs per workload in steadiness mode")
    p.add_argument("--workloads", help="steadiness mode: comma list")
    p.add_argument("--verbose", action="store_true",
                   help="steadiness mode: also print every run's value")
    args = p.parse_args()
    if args.steady:
        return steady(args)
    if not args.workload or args.seconds <= 0:
        p.error("--workload and --seconds are required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
