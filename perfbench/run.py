#!/usr/bin/env python3
"""Run one workload of the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--build-dir DIR] [--record FILE]
    python3 perfbench/run.py --smoke [--build-dir DIR]

Builds perfbench/ (the Muppet library, muppetd and the muppet_bench runner)
into the build directory, runs the workload in a fresh process, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits nonzero when the build fails, the outputs
are wrong, an operation failed, or a metric is missing.

--smoke runs every workload for a fraction of a second on the default and
the held-out seed, checks correctness and the output schema (never speed),
and runs compare.py's selftest.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["count-m2", "count-m1", "tweets-eo", "wire-wordcount"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build_dir):
    """Configure (Release) on first use, then build the two binaries."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "muppet_bench", "muppetd"],
        stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(build_dir, workload, seed, seconds, trace, extra=()):
    """Run muppet_bench once; returns its parsed JSON document."""
    work_dir = os.path.join(build_dir, "work", "%s-%d-%d" % (
        workload, seed, os.getpid()))
    cmd = [os.path.join(build_dir, "muppet_bench"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work-dir=" + work_dir,
           "--muppetd=" + os.path.join(build_dir, "muppet", "muppetd")]
    cmd.extend(extra)
    # Own process group, so a timeout takes muppetd children down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result: %s" % (workload, lines[-1][:200]))


def select_metrics(spec, doc, trace):
    """BENCHMARK.json's metrics for this mode, or an error string."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = doc["layer"] if trace else doc["e2e"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            return None, "metric %s missing" % m["name"]
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None, "metric %s is not a finite number" % m["name"]
        if got["unit"] != m["unit"]:
            return None, "metric %s has unit %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, None


def print_run(workload, seed, trace, doc, metrics):
    meta = doc["info"].get("meta", {})
    print("workload %s seed %d trace %d" % (workload, seed, trace))
    print("meta git_sha=%s build_type=%s compiler=%s nproc=%s wall_s=%.2f" % (
        git_sha(), meta.get("build_type"), meta.get("compiler"),
        meta.get("nproc"), meta.get("wall_s", 0)))
    for name, m in metrics.items():
        n = doc["samples"].get(name)
        print("metric %-28s %16.6g %-9s%s" % (
            name, m["value"], m["unit"], " (n=%d)" % n if n else ""))
    for w in doc.get("warnings", []):
        print("warning " + w)
    for p in doc.get("problems", []):
        print("PROBLEM " + p)


def run_one(args, spec):
    build_dir = os.path.abspath(args.build_dir)
    build(build_dir)
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing to time a %s build" % (build_type or "default"))
    seconds = args.seconds or spec["run_seconds"]
    doc = run_bench(build_dir, args.workload, args.seed, seconds, args.trace)
    metrics, error = select_metrics(spec, doc, args.trace)
    if error:
        fail("%s: %s" % (args.workload, error))
    print_run(args.workload, args.seed, args.trace, doc, metrics)
    result = {"correct": bool(doc["correct"]),
              "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]),
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "git_sha": git_sha(),
                                "meta": doc["info"].get("meta", {}),
                                "result": result}) + "\n")
    print(json.dumps(result))
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        sys.exit(1)


def smoke(args, spec):
    """Correctness and schema on every workload, two seeds; never speed."""
    start = time.time()
    build_dir = os.path.abspath(args.build_dir)
    build(build_dir)
    errors = []
    for workload in WORKLOADS:
        errors_before = len(errors)
        prints = {}
        for seed, trace in ((DEFAULT_SEED, 1), (HELD_OUT_SEED, 0)):
            doc = run_bench(build_dir, workload, seed, 0.4, trace,
                            ("--work=0.15", "--probe-seconds=0.2"))
            _, error = select_metrics(spec, doc, trace)
            if error:
                errors.append("%s seed %d: %s" % (workload, seed, error))
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                errors.append("%s seed %d: correct=%s failed=%d %s" % (
                    workload, seed, doc["correct"], doc["failed"],
                    doc["problems"]))
            prints[seed] = doc["info"].get("input_fingerprint")
        if prints[DEFAULT_SEED] == prints[HELD_OUT_SEED]:
            errors.append("%s: seeds %d and %d generate the same inputs" % (
                workload, DEFAULT_SEED, HELD_OUT_SEED))
        print("smoke %s: %s" % (
            workload, "ok" if len(errors) == errors_before else "FAILED"))
    r = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                        "--selftest"])
    if r.returncode != 0:
        errors.append("compare.py --selftest failed")
    for e in errors:
        print("smoke: " + e, file=sys.stderr)
    print("smoke: %s in %.1f s" % ("FAILED" if errors else "passed",
                                    time.time() - start))
    sys.exit(1 if errors else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            ".bench_build"))
    parser.add_argument("--record", help="append the result to this file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        smoke(args, spec)
    if not args.workload:
        parser.error("--workload is required (or --smoke)")
    run_one(args, spec)


if __name__ == "__main__":
    main()
