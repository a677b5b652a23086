#!/usr/bin/env python3
"""muppetd refuses config values it cannot honour.

Runs `muppetd` once per bad config and expects exit code 2 with a
message naming the field, before the node binds a port or starts an
engine. An unknown value must never fall back to a default: a typo in
`durability.mode` would otherwise run a cluster without the changelog
its operator asked for.

Usage: tools/muppetd_bad_config.py PATH_TO_MUPPETD
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

# (what, config overrides, text the error must contain)
CASES = [
    ("unknown overflow policy",
     {"engine": {"overflow_policy": "spill"}}, "engine.overflow_policy"),
    ("overflow_stream, whose stream a config cannot name",
     {"engine": {"overflow_policy": "overflow_stream"}},
     "engine.overflow_policy"),
    ("unknown durability mode",
     {"durability": {"mode": "durable", "dir": "state"}}, "durability.mode"),
    ("the hyphenated spelling /statusz prints",
     {"durability": {"mode": "exactly-once", "dir": "state"}},
     "durability.mode"),
    ("negative trace sample period",
     {"trace": {"sample_period": -1}}, "trace.sample_period"),
]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    muppetd = argv[1]
    failures = 0
    with tempfile.TemporaryDirectory() as td:
        for what, overrides, needle in CASES:
            config = {
                "app": "wordcount",
                "nodes": [{"id": 0, "host": "127.0.0.1", "data_port": 0,
                           "admin_port": 0, "machines": [0]}],
            }
            config.update(overrides)
            path = os.path.join(td, "cluster.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(config, f)
            # --run-seconds bounds a run that wrongly starts the node.
            proc = subprocess.run(
                [muppetd, f"--config={path}", "--node=0", "--run-seconds=1"],
                capture_output=True, text=True, timeout=60, cwd=td)
            ok = proc.returncode == 2 and needle in proc.stderr
            print(f"[{'ok' if ok else 'FAIL'}] {what}: exit "
                  f"{proc.returncode}, stderr {proc.stderr.strip()!r}")
            failures += not ok
    if failures:
        print(f"muppetd_bad_config: {failures} failure(s)", file=sys.stderr)
        return 1
    print("muppetd_bad_config: every bad config refused")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
