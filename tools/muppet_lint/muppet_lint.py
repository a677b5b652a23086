#!/usr/bin/env python3
"""muppet-lint: project-semantic static analysis for the muppet repo.

Five passes over src/ (see the module docstrings for details):

  lock-graph    whole-program lock acquisition graph vs. the documented
                hierarchy in common/sync.h; emits a DOT artifact
  wire          encode/decode completeness for every wire struct
  determinism   bans nondeterminism sources in engine/core/net/testing
  guarded       GUARDED_BY coverage for mutex-owning classes
  options       `*Options` fields that nothing in src/, tests/, bench/,
                examples/ or perfbench/ assigns, or that only tests/ does

Usage:
  tools/muppet_lint/muppet_lint.py [REPO_ROOT]
      [--checks lock-graph,wire,determinism,guarded,options]
      [--dot PATH]           write the lock graph as DOT
      [--subdirs src]        comma list of roots to scan (default: src)
      [--verbose]            print unresolved-expression diagnostics,
                             and the test-only options TEST_ONLY keeps

When REPO_ROOT has tools/muppet_lint/lock_edges.txt, the lock-graph pass
fails unless the graph has exactly the edges listed there, one
`kFrom -> kTo` a line.

Suppressions: `// muppet-lint: allow(<check>): <justification>` on the
offending line, or alone on the line above. The justification is
mandatory; a bare allow() is itself reported.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import clang_frontend  # noqa: E402
import determinism  # noqa: E402
import guarded_by  # noqa: E402
import lock_graph  # noqa: E402
import options  # noqa: E402
import wire_codec  # noqa: E402
from cpp_model import Finding, parse_classes, walk_sources  # noqa: E402

ALL_CHECKS = ("lock-graph", "wire", "determinism", "guarded", "options")
EDGES_FILE = os.path.join("tools", "muppet_lint", "lock_edges.txt")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="muppet-lint", add_help=True)
    ap.add_argument("root", nargs="?", default=os.getcwd())
    ap.add_argument("--checks", default=",".join(ALL_CHECKS))
    ap.add_argument("--dot", default=None)
    ap.add_argument("--subdirs", default="src")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv[1:])

    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        print(f"muppet-lint: unknown check(s) {sorted(unknown)}; "
              f"known: {list(ALL_CHECKS)}", file=sys.stderr)
        return 2
    subdirs = tuple(s.strip().rstrip("/") for s in args.subdirs.split(",")
                    if s.strip())
    if not os.path.isdir(args.root):
        print(f"muppet-lint: no such directory {args.root}", file=sys.stderr)
        return 2

    files = walk_sources(args.root, subdirs=subdirs)
    if not files:
        print(f"muppet-lint: no .h/.cc files under "
              f"{[os.path.join(args.root, s) for s in subdirs]}",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []

    # Malformed suppressions are findings regardless of selected checks.
    for sf in files:
        for line, msg in sf.suppressions.malformed:
            findings.append(Finding("suppression", sf.rel, line, msg))

    graph = None
    if "lock-graph" in checks:
        got, graph = lock_graph.run(files, dot_path=args.dot)
        findings.extend(got)
        if args.verbose and graph is not None:
            for note in graph.unresolved:
                print(f"muppet-lint: note: {note}", file=sys.stderr)
        pinned = os.path.join(args.root, EDGES_FILE)
        if graph is not None and os.path.isfile(pinned):
            findings.extend(lock_graph.compare_edges(graph, pinned,
                                                     EDGES_FILE))
    if "wire" in checks:
        findings.extend(wire_codec.run(files))
    if "determinism" in checks:
        findings.extend(determinism.run(files))
    if "guarded" in checks:
        findings.extend(guarded_by.run(files))
    if "options" in checks:
        notes: list[str] = []
        findings.extend(options.run(files, args.root, notes))
        if args.verbose:
            for note in notes:
                print(f"muppet-lint: info: {note}")

    cindex = clang_frontend.load()
    if cindex is not None:
        model = {}
        for sf in files:
            for ci in parse_classes(sf):
                model.setdefault(ci.name, set()).update(
                    f.name for f in ci.fields)
        for w in clang_frontend.cross_validate(
                cindex, args.root, files, model):
            print(f"muppet-lint: warning: {w}", file=sys.stderr)

    for f in sorted(findings, key=lambda f: (f.path, f.line, f.check)):
        print(f)

    n_edges = len(graph.edges) if graph is not None else 0
    n_levels = len(graph.levels) - (1 if graph and "kUnordered"
                                    in graph.levels else 0) \
        if graph is not None else 0
    summary = (f"muppet-lint: {len(files)} files, "
               f"checks=[{','.join(checks)}]")
    if graph is not None:
        summary += f", lock graph: {n_levels} levels / {n_edges} edges"
    if findings:
        print(f"{summary} -- {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"{summary} -- OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
