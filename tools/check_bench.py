#!/usr/bin/env python3
"""Throughput-regression gate over the committed bench baselines.

Compares a freshly produced BENCH_*.json against the baseline committed
at the repo root. Rows are matched by their configuration keys (every
key that is not a measured metric — e.g. `dispatch`, `zipf_skew`,
`load_manager`); for each matched row the `events_per_sec` throughput
is compared:

  * drop  > --fail-pct (default 25%)  ->  exit 1 (regression)
  * drop  > --warn-pct (default 10%)  ->  warning, exit 0
  * a baseline row missing from the fresh results -> exit 1
    (config drift must be re-baselined deliberately, not silently)

Latency and counter columns ride along for humans but are not gated:
they are too environment-sensitive for a hard nightly threshold.

Usage:
  tools/check_bench.py BASELINE FRESH [--warn-pct N] [--fail-pct N]
  tools/check_bench.py --selftest
"""

from __future__ import annotations

import argparse
import json
import sys

# Everything measured rather than configured. Keys not listed here
# identify the row.
METRIC_KEYS = frozenset({
    "events_per_sec", "elapsed_us", "events",
    "http_errors",
    "latency_p50_us", "latency_p95_us", "latency_p99_us",
    "latency_p999_us",
    "queue_wait_p99_us",
    "secondary_dispatches", "slate_contentions",
    "key_splits",
    "exact",
    "slatelog_appends", "checkpoints",
    "replay_records", "replay_elapsed_us", "replay_records_per_sec",
})


def _load(path: str) -> tuple[str, list[dict]]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{path}: not a bench result "
                         "(expected {{'bench': ..., 'rows': [...]}})")
    return str(doc.get("bench", "?")), list(doc["rows"])


def _row_key(row: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in METRIC_KEYS))


def _fmt_key(key: tuple) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in key) + "}"


def compare(baseline_path: str, fresh_path: str,
            warn_pct: float, fail_pct: float) -> int:
    base_name, base_rows = _load(baseline_path)
    fresh_name, fresh_rows = _load(fresh_path)
    if base_name != fresh_name:
        print(f"check_bench: bench name mismatch: baseline is "
              f"'{base_name}', fresh is '{fresh_name}'", file=sys.stderr)
        return 2

    # A bench may measure the same configuration more than once (e.g.
    # with/without tracing sweeps that repeat a point); group per key
    # and match positionally within the group.
    fresh_by_key: dict[tuple, list[dict]] = {}
    for row in fresh_rows:
        fresh_by_key.setdefault(_row_key(row), []).append(row)

    failures = 0
    warnings = 0
    for row in base_rows:
        key = _row_key(row)
        group = fresh_by_key.get(key, [])
        fresh = group.pop(0) if group else None
        if fresh is None:
            print(f"check_bench: FAIL {_fmt_key(key)}: row missing from "
                  f"fresh results; re-baseline deliberately if the bench "
                  f"matrix changed")
            failures += 1
            continue
        base_eps = float(row.get("events_per_sec", 0.0))
        fresh_eps = float(fresh.get("events_per_sec", 0.0))
        if base_eps <= 0:
            continue
        drop_pct = (base_eps - fresh_eps) / base_eps * 100.0
        line = (f"{_fmt_key(key)}: baseline {base_eps:,.0f} ev/s, "
                f"fresh {fresh_eps:,.0f} ev/s ({-drop_pct:+.1f}%)")
        if drop_pct > fail_pct:
            print(f"check_bench: FAIL {line}")
            failures += 1
        elif drop_pct > warn_pct:
            print(f"check_bench: WARN {line}")
            warnings += 1
        else:
            print(f"check_bench: ok   {line}")

    for key, group in fresh_by_key.items():
        for _ in group:
            print(f"check_bench: note {_fmt_key(key)}: new row not in "
                  f"the baseline (ungated)")

    if failures:
        print(f"check_bench: {failures} regression(s) beyond "
              f"{fail_pct:.0f}% on bench '{base_name}'", file=sys.stderr)
        return 1
    if warnings:
        print(f"check_bench: {warnings} row(s) more than {warn_pct:.0f}% "
              f"down on bench '{base_name}' (not fatal)", file=sys.stderr)
    print(f"check_bench: OK bench '{base_name}' "
          f"({len(base_rows)} row(s) gated)")
    return 0


def _selftest() -> int:
    import copy
    import os
    import tempfile

    base = {
        "bench": "dispatch",
        "rows": [
            {"dispatch": "single", "zipf_skew": 0,
             "events_per_sec": 100000.0, "latency_p50_us": 10},
            {"dispatch": "two-choice", "zipf_skew": 0,
             "events_per_sec": 200000.0, "latency_p50_us": 8},
        ],
    }

    def run_case(mutate, expect_rc: int, what: str,
                 failures: list[str]) -> None:
        fresh = copy.deepcopy(base)
        mutate(fresh)
        with tempfile.TemporaryDirectory() as td:
            bp = os.path.join(td, "base.json")
            fp = os.path.join(td, "fresh.json")
            with open(bp, "w", encoding="utf-8") as f:
                json.dump(base, f)
            with open(fp, "w", encoding="utf-8") as f:
                json.dump(fresh, f)
            rc = compare(bp, fp, warn_pct=10.0, fail_pct=25.0)
        tag = "ok" if rc == expect_rc else "FAIL"
        print(f"[{tag}] check_bench selftest: {what} "
              f"(rc={rc}, want {expect_rc})")
        if rc != expect_rc:
            failures.append(what)

    failures: list[str] = []
    run_case(lambda d: None, 0, "identical results pass", failures)
    run_case(lambda d: d["rows"][0].__setitem__("events_per_sec", 85000.0),
             0, "-15% drop warns but passes", failures)
    run_case(lambda d: d["rows"][0].__setitem__("events_per_sec", 60000.0),
             1, "-40% drop fails", failures)
    run_case(lambda d: d["rows"][0].__setitem__("events_per_sec", 140000.0),
             0, "improvement passes", failures)
    run_case(lambda d: d["rows"].pop(0), 1,
             "missing baseline row fails", failures)
    run_case(lambda d: d.__setitem__("bench", "hotspot"), 2,
             "bench name mismatch is a usage error", failures)
    # Latency is informational only: a big latency change alone passes.
    run_case(lambda d: d["rows"][0].__setitem__("latency_p50_us", 900),
             0, "latency drift alone is not gated", failures)
    if failures:
        print(f"check_bench selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("check_bench selftest: all cases behaved")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="check_bench")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--warn-pct", type=float, default=10.0)
    ap.add_argument("--fail-pct", type=float, default=25.0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv[1:])

    if args.selftest:
        return _selftest()
    if not args.baseline or not args.fresh:
        ap.error("BASELINE and FRESH are required unless --selftest")
    try:
        return compare(args.baseline, args.fresh,
                       args.warn_pct, args.fail_pct)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
