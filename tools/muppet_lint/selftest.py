#!/usr/bin/env python3
"""Self-tests for muppet-lint against the seeded fixtures in testdata/.

Each fixture is a miniature repo (its own src/ tree). The bad_* cases
seed exactly the violation their pass must catch; `clean` and
`suppressed` must come back with exit 0. The DOT artifact is checked
for node completeness against the fixture's LockLevel enum.

Run directly or via ctest (registered in tools/CMakeLists.txt).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import muppet_lint  # noqa: E402

TESTDATA = os.path.join(HERE, "testdata")

_failures: list[str] = []


def _run(fixture: str, extra_args: list[str] | None = None
         ) -> tuple[int, str]:
    root = os.path.join(TESTDATA, fixture)  # an absolute path passes as is
    argv = ["muppet-lint", root] + (extra_args or [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = muppet_lint.main(argv)
    return rc, out.getvalue()


def check(fixture: str, cond: bool, what: str) -> None:
    tag = "ok" if cond else "FAIL"
    print(f"[{tag}] {fixture}: {what}")
    if not cond:
        _failures.append(f"{fixture}: {what}")


def main() -> int:
    rc, out = _run("clean")
    check("clean", rc == 0, f"exit 0 on a clean tree (got {rc})")
    check("clean", out.strip().endswith("OK") or "OK" in out,
          "reports OK")

    rc, out = _run("suppressed")
    check("suppressed", rc == 0,
          f"justified allow() silences the finding (got exit {rc})")

    rc, out = _run("bad_lock")
    check("bad_lock", rc == 1, f"exit 1 on inversion (got {rc})")
    check("bad_lock", "[lock-graph]" in out, "lock-graph finding emitted")
    check("bad_lock", "kMid" in out and "kLow" in out,
          "finding names both levels of the inverted edge")
    check("bad_lock", "TakeLow" in out or "Inverted" in out,
          "interprocedural acquisition attributed to a function")

    with tempfile.TemporaryDirectory() as td:
        dot = os.path.join(td, "g.dot")
        rc, out = _run("bad_lock", ["--dot", dot])
        with open(dot, encoding="utf-8") as f:
            dot_text = f.read()
        for lvl in ("kLow", "kMid", "kHigh"):
            check("bad_lock", f'"{lvl}"' in dot_text,
                  f"DOT artifact contains node {lvl}")
        check("bad_lock", "->" in dot_text, "DOT artifact contains edges")

    rc, out = _run("bad_lambda_lock")
    check("bad_lambda_lock", rc == 1,
          f"exit 1 on an inversion inside a callable (got {rc})")
    check("bad_lambda_lock", "kMid" in out and "kLow" in out
          and "Sender::Inverted" in out,
          "lambda argument modelled as called under the caller's lock")
    check("bad_lambda_lock", out.count("[lock-graph]") == 1,
          "thread-spawned and stored lambdas add no edge")

    rc, out = _run("bad_handed_lock")
    check("bad_handed_lock", rc == 1,
          f"exit 1 on an inversion through a handed object (got {rc})")
    check("bad_handed_lock", "kMid" in out and "kLow" in out
          and "via Utils::Emit (Engine::Inverted)" in out,
          "object handed to an unresolved virtual hook modelled as used")
    check("bad_handed_lock", out.count("[lock-graph]") == 1,
          "an object handed to a resolved call adds no edge")

    rc, out = _run("bad_chained_lock")
    check("bad_chained_lock", rc == 1,
          f"exit 1 on an inversion behind a member chain (got {rc})")
    check("bad_chained_lock", "kMid" in out and "kLow" in out
          and "via Log::Append" in out,
          "machine->log->Append() resolved through the chain's types")
    check("bad_chained_lock", out.count("[lock-graph]") == 1,
          "the chain to the lock-free Append adds no edge")

    with tempfile.TemporaryDirectory() as td:
        root = os.path.join(td, "bad_lock")
        shutil.copytree(os.path.join(TESTDATA, "bad_lock"), root)
        edges = os.path.join(root, muppet_lint.EDGES_FILE)
        os.makedirs(os.path.dirname(edges))
        with open(edges, "w", encoding="utf-8") as f:
            f.write("# pinned\nkMid -> kLow\nkHigh -> kLow\n")
        rc, out = _run(root, ["--checks", "lock-graph"])
        check("bad_lock", "edge kHigh -> kLow is missing" in out,
              "a pinned edge the graph lacks is named")
        check("bad_lock", "new lock-graph edge" not in out,
              "a pinned edge the graph has passes")
        with open(edges, "w", encoding="utf-8") as f:
            f.write("")
        rc, out = _run(root, ["--checks", "lock-graph"])
        check("bad_lock", "new lock-graph edge kMid -> kLow" in out,
              "an edge missing from the pinned list is named")

    rc, out = _run("bad_options", ["--checks", "options"])
    check("bad_options", rc == 1, f"exit 1 on an unset option (got {rc})")
    check("bad_options", "KnobOptions::never_set" in out,
          "field written only through another struct's variable is flagged")
    check("bad_options", "WatchOptions::enabled" in out,
          "field written only through another struct's member is flagged")
    check("bad_options", out.count("[options]") == 2,
          "assigned, nested, appended, static and src/testing fields "
          "are not flagged")

    rc, out = _run("bad_options_default", ["--checks", "options"])
    check("bad_options_default", rc == 1,
          f"exit 1 on a setter that restates a default (got {rc})")
    check("bad_options_default", all(
        f"KnobOptions::{name} is set to its default" in out
        for name in ("depth", "ratio", "mode")),
          "integer-expression, float and enumerator restatements flagged")
    check("bad_options_default", out.count("[options]") == 3,
          "real settings, resets, unknown owners and benchmark programs "
          "are not flagged")

    rc, out = _run("test_only_options", ["--checks", "options"])
    check("test_only_options", rc == 1,
          f"exit 1 on a field only tests set (got {rc})")
    check("test_only_options",
          "src/engine/knobs.h:11: [options] KnobOptions::test_only is "
          "written only under tests/" in out,
          "the field written only under tests/ is flagged at its line")
    check("test_only_options",
          "src/engine/knobs.h:12: [options] KnobOptions::scenario_only is "
          "written only under tests/ or src/testing/" in out,
          "a write under src/testing/ counts as a test's write")
    check("test_only_options", out.count("[options]") == 2,
          "fields written in src/ or bench/ are not flagged")

    rc, out = _run("test_only_allowed", ["--checks", "options"])
    check("test_only_allowed", rc == 0,
          f"a field TEST_ONLY keeps is no finding (got exit {rc})")
    check("test_only_allowed", "info:" not in out,
          "no info lines without --verbose")
    rc, out = _run("test_only_allowed", ["--checks", "options",
                                         "--verbose"])
    check("test_only_allowed",
          "info: src/core/slate_store.h:10: SlateStoreOptions::column_family"
          " is written only under tests/ or src/testing/ (kept: " in out,
          "--verbose lists the kept field with its reason")

    rc, out = _run("bad_wire")
    check("bad_wire", rc == 1, f"exit 1 on dropped field (got {rc})")
    check("bad_wire", "field-count mismatch" in out,
          "count-pinning check fires (3 puts vs 2 gets)")
    check("bad_wire", "'c'" in out,
          "dropped field named in the symmetry finding")
    check("bad_wire", "'dedup'" in out,
          "slatelog scope scanned: dropped dedup identity caught")
    check("bad_wire", "EncodeSlateLogRecord" in out,
          "slatelog codec named in its finding")

    rc, out = _run("bad_determinism")
    check("bad_determinism", rc == 1, f"exit 1 on wall clock (got {rc})")
    check("bad_determinism", "[determinism]" in out and "steady_clock" in out,
          "wall-clock read reported")

    rc, out = _run("bad_guarded")
    check("bad_guarded", rc == 1, f"exit 1 on unguarded member (got {rc})")
    check("bad_guarded", "hits_" in out, "unguarded written member flagged")
    check("bad_guarded", "limit_" not in out,
          "ctor-only member not flagged")
    check("bad_guarded", "guarded_" not in out,
          "annotated member not flagged")

    rc, out = _run("bad_suppression")
    check("bad_suppression", rc == 1, f"exit 1 (got {rc})")
    check("bad_suppression", "[suppression]" in out,
          "bare allow() without justification is itself a finding")
    check("bad_suppression", "[determinism]" in out,
          "malformed allow() does not silence the violation")

    if _failures:
        print(f"\nmuppet-lint selftest: {len(_failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("\nmuppet-lint selftest: all fixtures behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
