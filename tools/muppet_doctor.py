#!/usr/bin/env python3
"""muppet-doctor: one-shot cluster diagnosis from the admin endpoints.

Scrapes /healthz, /statusz, /sloz and /metrics from each given admin
endpoint (or reads a saved scrape directory), runs the project's
diagnosis rules over the combined view, and prints findings ranked by
severity with a concrete remediation hint each — the runbook in
DESIGN.md §14, executable.

Usage:
    muppet_doctor.py http://host:port [http://host2:port2 ...]
    muppet_doctor.py --from-dir DIR     # saved scrape: healthz.json,
                                        # statusz.json, sloz.json,
                                        # metrics.prom (chaos artifacts
                                        # and CI smoke dumps fit); a DIR
                                        # holding node*/ subdirectories
                                        # is diagnosed per cluster node
    muppet_doctor.py --selftest         # fixture-driven self-check

Exit status: 0 = healthy or warnings only, 1 = at least one critical
finding, 2 = scrape/usage error. Stdlib only.
"""

from __future__ import annotations

import json
import os
import re
import sys
import urllib.error
import urllib.request

CRIT, WARN, INFO = "CRIT", "WARN", "INFO"
_SEV_RANK = {CRIT: 0, WARN: 1, INFO: 2}

# Remediation hints keyed by watchdog incident kind (engine/watchdog.h).
_INCIDENT_HINTS = {
    "queue-stall": ("a worker queue is full and not dequeuing: look for a "
                    "wedged operator (stuck map/update callback) or an "
                    "undersized queue_capacity"),
    "drain-stall": ("a drain has made no inflight progress for several "
                    "ticks: an event is stuck in an operator or a "
                    "crashed machine still holds inflight work"),
    "changelog-stall": ("the slate changelog sync cursor is frozen while "
                        "appends continue: check disk throughput / fsync "
                        "latency on that machine"),
    "recovery-stuck": ("a machine has been between BeginRecovery and "
                       "ClearFailure past the budget: replay may be "
                       "wedged on a corrupt segment; inspect its "
                       "changelog directory"),
}

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? ([^ ]+)(?: -?\d+)?$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class Finding:
    def __init__(self, severity, where, message, hint=""):
        self.severity = severity
        self.where = where
        self.message = message
        self.hint = hint

    def render(self):
        line = f"[{self.severity}] {self.where}: {self.message}"
        if self.hint:
            line += f"\n       fix: {self.hint}"
        return line


def parse_metrics(text):
    """Prometheus text -> list of (name, {labels}, float value)."""
    samples = []
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            continue
        labels = dict(_LABEL_RE.findall(m.group(2) or ""))
        try:
            value = float(m.group(3))
        except ValueError:
            continue
        samples.append((m.group(1), labels, value))
    return samples


def metric_value(samples, name, **labels):
    for sname, slabels, value in samples:
        if sname == name and all(slabels.get(k) == v
                                 for k, v in labels.items()):
            return value
    return None


def diagnose(healthz, statusz, sloz, samples, where="cluster"):
    """The rule set. Pure function of the four scraped documents."""
    findings = []

    # --- Liveness / readiness (the first thing an operator checks).
    if healthz is not None:
        if not healthz.get("live", True):
            findings.append(Finding(
                CRIT, where, "process reports not-live",
                "the admin server answered but the engine marked itself "
                "dead; restart the process"))
        if not healthz.get("ready", True):
            failed = [c for c in healthz.get("checks", [])
                      if not c.get("ok", True)]
            detail = "; ".join(
                f"{c.get('name', '?')}: {c.get('detail', '')}"
                for c in failed) or "no failing check listed"
            findings.append(Finding(
                CRIT, where, f"machine not ready ({detail})",
                "drain traffic away until /healthz returns 200; if the "
                "machine is mid-recovery this clears at ClearFailure"))

    # --- Crashed machines and open incidents from /statusz.
    if statusz is not None:
        for machine in statusz.get("machines", []):
            mid = machine.get("machine", "?")
            if machine.get("crashed", False):
                findings.append(Finding(
                    CRIT, f"{where}/machine-{mid}", "machine crashed",
                    "RestartMachine (or the ops equivalent) replays the "
                    "changelog and rejoins the ring"))
            if machine.get("recovering", False):
                findings.append(Finding(
                    WARN, f"{where}/machine-{mid}",
                    "machine recovering (not routable)",
                    "expected to clear once changelog replay finishes; "
                    "if it persists see the recovery-stuck incident hint"))
            capacity = machine.get("queue_capacity", 0)
            depths = machine.get("queue_depths", [])
            if capacity and depths:
                worst = max(depths)
                if worst >= capacity:
                    findings.append(Finding(
                        CRIT, f"{where}/machine-{mid}",
                        f"worker queue full ({worst}/{capacity})",
                        _INCIDENT_HINTS["queue-stall"]))
                elif worst >= 0.8 * capacity:
                    findings.append(Finding(
                        WARN, f"{where}/machine-{mid}",
                        f"worker queue at {worst}/{capacity} "
                        "(>=80% occupancy)",
                        "sustained pressure triggers the overflow policy; "
                        "add threads/machines or raise queue_capacity"))
        open_incidents = statusz.get("open_incidents", 0)
        if open_incidents:
            kinds = {}
            for incident in statusz.get("incidents", []):
                if incident.get("open", False) or incident.get(
                        "cleared_us", 0) == 0:
                    kinds[incident.get("kind", "?")] = (
                        kinds.get(incident.get("kind", "?"), 0) + 1)
            for kind, count in sorted(kinds.items()):
                findings.append(Finding(
                    CRIT, where,
                    f"{count} open {kind} incident(s) (watchdog)",
                    _INCIDENT_HINTS.get(kind, "see /statusz incidents "
                                        "panel for the stalled entity")))
            if not kinds:
                findings.append(Finding(
                    CRIT, where,
                    f"{open_incidents} open watchdog incident(s)",
                    "see the /statusz incidents panel"))

    # --- SLO verdicts and burn rates from /sloz.
    if sloz is not None:
        for stream in sloz.get("streams", []):
            name = stream.get("stream", "?")
            if "meeting_objective" in stream and not stream.get(
                    "meeting_objective", True):
                target = stream.get("objective", {}).get("target_p99_us", 0)
                findings.append(Finding(
                    CRIT, f"{where}/stream-{name}",
                    f"latency objective missed: p99 {stream.get('p99_us', 0)}"
                    f"us > target {target}us",
                    _dominant_bucket_hint(stream)))
            for burn in stream.get("burn", []):
                rate = burn.get("rate", 0.0)
                if rate > 1.0:
                    window_s = burn.get("window_micros", 0) // 1_000_000
                    findings.append(Finding(
                        WARN, f"{where}/stream-{name}",
                        f"error budget burning at {rate:.1f}x over the "
                        f"{window_s}s window",
                        "sustained >1x exhausts the objective's budget; "
                        + _dominant_bucket_hint(stream)))

    # --- Metrics-only signals (work even if the JSON endpoints are off).
    if samples:
        # Events settled as lost (§4.3): routed to or queued on a crashed
        # machine, or failed in processing — a slate fetch that missed
        # the cache while the store could not serve the read.
        lost = metric_value(samples, "muppet_events_lost_failure_total")
        if lost:
            crashed = [str(m.get("machine", "?"))
                       for m in (statusz or {}).get("machines", [])
                       if m.get("crashed", False)]
            if crashed:
                hint = (f"machine(s) {', '.join(crashed)} crashed with "
                        "events queued or in flight; RestartMachine, and "
                        "republish their inputs if the events matter")
            else:
                hint = ("no machine is crashed, so events failed in "
                        "processing: most likely a slate store outage "
                        "(cache misses cannot read their slate) — check "
                        "the kvstore nodes; the engine log names each "
                        "failure")
            findings.append(Finding(
                WARN, where,
                f"{int(lost)} event(s) lost to machine or store failure",
                hint))
        # HTTP ingress (muppetd): a fixed set of serving threads; when all
        # of them are busy, new connections queue in the listen backlog.
        busy = metric_value(samples, "muppet_http_busy_threads")
        pool = metric_value(samples, "muppet_http_serving_threads")
        if busy is not None and pool and busy >= pool:
            expired = metric_value(
                samples, "muppet_http_deadline_expired_total")
            detail = (f"; {int(expired)} connection read/write(s) hit the "
                      "socket deadline" if expired else "")
            findings.append(Finding(
                WARN, where,
                f"HTTP ingress saturated: all {int(pool)} serving threads "
                f"busy{detail}",
                "new connections wait in the listen backlog (the scrape "
                "itself holds one thread): spread publishers over more "
                "nodes, and look for slow handlers (/drainz, cross-node "
                "/slate reads) or clients that connect and then stall"))
        open_gauge = metric_value(samples, "muppet_watchdog_open_incidents")
        if open_gauge and statusz is None:
            findings.append(Finding(
                CRIT, where,
                f"{int(open_gauge)} open watchdog incident(s) (metrics)",
                "scrape /statusz for the incident panel"))
        # Cross-process transport health (muppetd deployments): dropped
        # sends mark the paper's §4.3 failed-send detection window;
        # declines mark write-queue / receiver backpressure, which under
        # the throttle policy is also the source throttle (a declined
        # sender blocks and retries, so its publisher slows down).
        dropped = metric_value(
            samples, "muppet_transport_messages_dropped_total")
        if dropped:
            findings.append(Finding(
                WARN, where,
                f"{int(dropped)} cross-machine message(s) dropped at the "
                "transport",
                "sends to an unreachable peer fail until the ring reroutes "
                "(§4.3); if the count keeps growing a peer connection is "
                "flapping — check that node's muppetd process and network"))
        declined = metric_value(
            samples, "muppet_transport_messages_declined_total")
        if declined:
            findings.append(Finding(
                WARN, where,
                f"{int(declined)} message(s) declined by transport "
                "backpressure",
                "a peer's TCP write queue (or its receiver queue) is full; "
                "the overflow policy is engaged (under throttle the "
                "senders block, which paces ingest) — scale out the slow "
                "node or raise the queue caps"))

    findings.sort(key=lambda f: _SEV_RANK[f.severity])
    return findings


def _dominant_bucket_hint(stream):
    """Pick the remediation from the worst critical path's biggest bucket."""
    worst = stream.get("worst_critical_paths", [])
    if not worst:
        return "no critical paths captured; raise trace sampling"
    path = worst[0]
    buckets = {
        "queue_wait_us": "time is queue wait: add worker threads or "
                         "machines (or split the hot key)",
        "exec_us": "time is operator exec: the map/update callback itself "
                   "is slow",
        "slate_fetch_us": "time is slate fetches: cache misses or remote "
                          "reads dominate; grow the slate cache",
        "net_hop_us": "time is network hops: keys are bouncing between "
                      "machines; check ring placement",
        "publish_us": "time is publish-side: the ingest path or source "
                      "throttle is the bottleneck",
    }
    dominant = max(buckets, key=lambda k: path.get(k, 0))
    return f"worst trace: most {buckets[dominant]}"


def fetch(base, target):
    with urllib.request.urlopen(base + target, timeout=10) as resp:
        return resp.read().decode("utf-8")


def load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        print(f"muppet-doctor: bad JSON from {what}: {e}", file=sys.stderr)
        return None


def scrape_endpoint(base):
    docs = {}
    for target, key in (("/healthz", "healthz"), ("/statusz", "statusz"),
                        ("/sloz", "sloz"), ("/metrics", "metrics")):
        try:
            docs[key] = fetch(base, target)
        except (urllib.error.URLError, OSError) as e:
            # /healthz returns 503 with a body when not ready — that body
            # IS the diagnosis input, not a scrape failure.
            if isinstance(e, urllib.error.HTTPError) and e.code == 503:
                docs[key] = e.read().decode("utf-8")
            else:
                print(f"muppet-doctor: cannot scrape {base}{target}: {e}",
                      file=sys.stderr)
                docs[key] = None
    return docs


def load_dir(path):
    docs = {}
    for fname, key in (("healthz.json", "healthz"),
                       ("statusz.json", "statusz"), ("sloz.json", "sloz"),
                       ("metrics.prom", "metrics")):
        full = os.path.join(path, fname)
        docs[key] = (open(full, encoding="utf-8").read()
                     if os.path.exists(full) else None)
    return docs


def diagnose_docs(docs, where):
    # A node that produced NO document at all is a finding, not a silent
    # pass: in a multi-node scrape a dead muppetd must not read as
    # healthy just because there was nothing to diagnose.
    if not any(docs.get(k) for k in ("healthz", "statusz", "sloz",
                                     "metrics")):
        return [Finding(
            CRIT, where, "node unreachable (no admin endpoint answered)",
            "the muppetd process is down or the admin address is wrong; "
            "restart the node and check the cluster config")]
    healthz = (load_json(docs["healthz"], "healthz")
               if docs.get("healthz") else None)
    statusz = (load_json(docs["statusz"], "statusz")
               if docs.get("statusz") else None)
    sloz = load_json(docs["sloz"], "sloz") if docs.get("sloz") else None
    samples = parse_metrics(docs["metrics"]) if docs.get("metrics") else []
    return diagnose(healthz, statusz, sloz, samples, where)


def diagnose_tree(path, where):
    """Diagnose a saved scrape. A flat directory holds one node's
    documents; a directory with node*/ subdirectories holds one saved
    scrape per cluster node (the net-smoke and chaos artifact layout),
    diagnosed per node with findings merged most-severe-first."""
    subdirs = sorted(
        d for d in (os.listdir(path) if os.path.isdir(path) else [])
        if d.startswith("node") and os.path.isdir(os.path.join(path, d)))
    if not subdirs:
        return diagnose_docs(load_dir(path), where)
    findings = []
    for sub in subdirs:
        findings.extend(
            diagnose_docs(load_dir(os.path.join(path, sub)),
                          f"{where}/{sub}"))
    findings.sort(key=lambda f: _SEV_RANK[f.severity])
    return findings


def report(findings):
    for finding in findings:
        print(finding.render())
    crit = sum(1 for f in findings if f.severity == CRIT)
    warn = sum(1 for f in findings if f.severity == WARN)
    if not findings:
        print("muppet-doctor: cluster healthy (no findings)")
    else:
        print(f"muppet-doctor: {len(findings)} finding(s) "
              f"({crit} critical, {warn} warning)")
    return 1 if crit else 0


# --- Fixture selftest -------------------------------------------------

def selftest():
    testdata = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "testdata", "doctor")
    failures = []

    def check(cond, what):
        print(f"[{'ok' if cond else 'FAIL'}] {what}")
        if not cond:
            failures.append(what)

    cases = sorted(os.listdir(testdata))
    check(len(cases) >= 3, f"at least 3 fixture cases ({cases})")
    for case in cases:
        case_dir = os.path.join(testdata, case)
        if not os.path.isdir(case_dir):
            continue
        with open(os.path.join(case_dir, "expected.json"),
                  encoding="utf-8") as f:
            expected = json.load(f)
        findings = diagnose_tree(case_dir, case)
        rendered = "\n".join(f.render() for f in findings)
        crit = sum(1 for f in findings if f.severity == CRIT)
        warn = sum(1 for f in findings if f.severity == WARN)
        check(crit == expected["critical"],
              f"{case}: {crit} critical findings "
              f"(want {expected['critical']})")
        check(warn == expected["warnings"],
              f"{case}: {warn} warnings (want {expected['warnings']})")
        for needle in expected.get("contains", []):
            check(needle in rendered,
                  f"{case}: diagnosis mentions {needle!r}")
        for needle in expected.get("absent", []):
            check(needle not in rendered,
                  f"{case}: diagnosis does not mention {needle!r}")
        # Ranking: severities must come out most-severe-first.
        ranks = [_SEV_RANK[f.severity] for f in findings]
        check(ranks == sorted(ranks), f"{case}: findings ranked by severity")
    print("muppet-doctor selftest:",
          "PASS" if not failures else f"FAIL ({len(failures)})")
    return 0 if not failures else 1


def main(argv):
    if len(argv) >= 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) == 3 and argv[1] == "--from-dir":
        return report(diagnose_tree(argv[2], argv[2]))
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    findings = []
    for base in argv[1:]:
        findings.extend(diagnose_docs(scrape_endpoint(base), base))
    findings.sort(key=lambda f: _SEV_RANK[f.severity])
    return report(findings)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
