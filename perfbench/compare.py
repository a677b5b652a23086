#!/usr/bin/env python3
"""Compare two sets of benchmark runs (perfbench/README.md).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark FILE]
    python3 perfbench/compare.py --selftest

Each input holds the lines `run.py --record FILE` appends, one per run. For
every (workload, metric) present on both sides it prints each side's median
and quartiles, the change of the medians, and a verdict against the bound
BENCHMARK.json fixes for the metric:

    within     the change's median is no worse than the base's by more
               than the bound, and no better by more than it
    worse      worse by more than the bound
    better     better by more than the bound
    unresolved either side's spread (quartile distance) is wider than the
               bound, so the medians cannot be compared; "better" when
               every change run beats every base run, and "worse" when
               every change run loses to every base run

The bound is a share of the base median, but never less than the metric's
floor in FLOORS: setup_s carries a 0.05 s floor, because set-up times of a
few milliseconds or less are thread and process start-up jitter.

Per-layer metrics have no bound; they are printed with verdict "-".
Exits 1 when any verdict is "worse" (or, with --selftest, when a fixture
gets the wrong verdict).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Smallest change, in the metric's unit, that a bound can call worse or
# better.
FLOORS = {"setup_s": 0.05}


def load_runs(path):
    """{(workload, metric): ([values], unit)} from a --record file."""
    runs = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                metrics = doc["result"]["metrics"]
                workload = doc["workload"]
            except (ValueError, KeyError, TypeError):
                sys.exit("%s:%d: not a run.py --record line" % (path, number))
            for name, m in metrics.items():
                values, _ = runs.setdefault((workload, name), ([], m["unit"]))
                values.append(float(m["value"]))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def allowed(values, bound, floor):
    """The change a bound allows around these values' median."""
    return max(bound * abs(quartiles(values)[1]), floor)


def verdict(base, change, better, bound, floor=0.0):
    """One of within / worse / better / unresolved; "-" without a bound."""
    if bound is None:
        return "-"
    sign = 1 if better == "higher" else -1

    def beats(a, b):
        return sign * (a - b) > 0

    def too_wide(side):
        q1, _, q3 = quartiles(side)
        return q3 - q1 > allowed(side, bound, floor)

    if too_wide(base) or too_wide(change):
        if all(beats(c, b) for c in change for b in base):
            return "better"
        if all(beats(b, c) for c in change for b in base):
            return "worse"
        return "unresolved"
    gain = sign * (quartiles(change)[1] - quartiles(base)[1])
    if gain < -allowed(base, bound, floor):
        return "worse"
    if gain > allowed(base, bound, floor):
        return "better"
    return "within"


def compare(base_runs, change_runs, spec, out=sys.stdout):
    """Prints the table; returns {(workload, metric): verdict}."""
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"] + spec["per_layer"]}
    verdicts = {}
    header = "%-15s %-28s %-9s %33s %33s %8s %6s  %s" % (
        "workload", "metric", "unit", "base median [q1 q3]",
        "change median [q1 q3]", "change", "bound", "verdict")
    print(header, file=out)
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, name = key
        if name not in directions:
            continue
        better, bound = directions[name]
        base, unit = base_runs[key]
        change, _ = change_runs[key]
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        delta = (cm - bm) / abs(bm) if bm else float("inf")
        v = verdict(base, change, better, bound, FLOORS.get(name, 0.0))
        verdicts[key] = v
        print("%-15s %-28s %-9s %11.5g [%9.5g %9.5g] %11.5g [%9.5g %9.5g] "
              "%+7.1f%% %6s  %s" % (
                  workload, name, unit, bm, b1, b3, cm, c1, c3, 100 * delta,
                  "-" if bound is None else "%.0f%%" % (100 * bound), v),
              file=out)
    return verdicts


def load_spec(path):
    with open(path) as f:
        return json.load(f)


# Fixture runs under testdata/ and the verdict each (workload, metric) must
# get: one case per verdict, a change inside the floor, and a per-layer
# metric without a bound.
SELFTEST_EXPECTED = {
    ("count-m2", "throughput_eps"): "within",
    ("count-m2", "latency_p50_us"): "worse",
    ("count-m2", "fetch_p50_us"): "better",
    ("count-m2", "setup_s"): "unresolved",
    ("count-m2", "mem_mb"): "worse",
    ("count-m1", "setup_s"): "within",
    ("tweets-eo", "throughput_eps"): "better",
    ("tweets-eo", "cache.hit_ratio"): "-",
}


def selftest():
    data = os.path.join(HERE, "testdata")
    spec = load_spec(os.path.join(data, "benchmark.json"))
    with open(os.devnull, "w") as devnull:
        got = compare(load_runs(os.path.join(data, "base.jsonl")),
                      load_runs(os.path.join(data, "change.jsonl")),
                      spec, out=devnull)
    errors = ["%s %s: want %s, got %s" % (w, m, want, got.get((w, m)))
              for (w, m), want in sorted(SELFTEST_EXPECTED.items())
              if got.get((w, m)) != want]
    errors += ["%s %s: unexpected verdict %s" % (w, m, v)
               for (w, m), v in sorted(got.items())
               if (w, m) not in SELFTEST_EXPECTED]
    for e in errors:
        print("compare.py selftest: " + e, file=sys.stderr)
    print("compare.py selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.base or not args.change:
        parser.error("give BASE and CHANGE record files (or --selftest)")
    verdicts = compare(load_runs(args.base), load_runs(args.change),
                       load_spec(args.benchmark))
    sys.exit(1 if "worse" in verdicts.values() else 0)


if __name__ == "__main__":
    main()
