#!/usr/bin/env bash
# Multi-process deployment smoke (DESIGN.md, "Transport backends &
# deployment model"): boots a 3-node muppetd cluster on localhost, drives
# it with muppet_loadgen over HTTP, checks /healthz and /metrics on every
# node, kills one node mid-run and restarts it (the paper's §4.3 failure
# arc over real sockets), verifies the cluster keeps answering and that
# every node converges to the same slate values, checks that every node
# records traces and that no span id appears on two nodes, asserts clean
# shutdown, and gates the measured throughput against the committed
# BENCH_net.json baseline with tools/check_bench.py.
#
# Usage: tools/net_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MUPPETD="$REPO_ROOT/$BUILD_DIR/src/muppetd"
LOADGEN="$REPO_ROOT/$BUILD_DIR/src/muppet_loadgen"
WORK="$(mktemp -d /tmp/muppet-net-smoke.XXXXXX)"

# Offset ports by PID so parallel CI jobs on one runner cannot collide.
BASE=$((20000 + $$ % 20000))
DATA0=$((BASE)); DATA1=$((BASE + 1)); DATA2=$((BASE + 2))
ADM0=$((BASE + 3)); ADM1=$((BASE + 4)); ADM2=$((BASE + 5))

declare -a PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

fail() {
  echo "net_smoke: FAIL: $*" >&2
  echo "--- node logs ---" >&2
  tail -n 40 "$WORK"/node*.log >&2 || true
  exit 1
}

cat > "$WORK/cluster.json" <<EOF
{
  "app": "wordcount",
  "engine": {"threads_per_machine": 2, "queue_capacity": 4096,
             "overflow_policy": "throttle"},
  "durability": {"mode": "exactly_once", "dir": "$WORK/state"},
  "slo": {"target_p99_micros": 5000000},
  "trace": {"sample_period": 4},
  "nodes": [
    {"id": 0, "host": "127.0.0.1", "data_port": $DATA0,
     "admin_port": $ADM0, "machines": [0]},
    {"id": 1, "host": "127.0.0.1", "data_port": $DATA1,
     "admin_port": $ADM1, "machines": [1]},
    {"id": 2, "host": "127.0.0.1", "data_port": $DATA2,
     "admin_port": $ADM2, "machines": [2]}
  ]
}
EOF

start_node() {  # start_node <id> <logfile>
  "$MUPPETD" --config="$WORK/cluster.json" --node="$1" --run-seconds=300 \
    > "$WORK/$2" 2>&1 &
  PIDS+=($!)
  echo $!
}

wait_ready() {  # wait_ready <admin_port>
  for _ in $(seq 1 100); do
    if curl -fsS "http://127.0.0.1:$1/healthz" 2>/dev/null \
        | python3 -c 'import json,sys; d=json.load(sys.stdin); sys.exit(0 if d["live"] and d["ready"] else 1)' 2>/dev/null; then
      return 0
    fi
    sleep 0.2
  done
  return 1
}

echo "net_smoke: starting 3-node cluster (data $DATA0-$DATA2, admin $ADM0-$ADM2)"
PID0=$(start_node 0 node0.log)
PID1=$(start_node 1 node1.log)
PID2=$(start_node 2 node2.log)
for port in $ADM0 $ADM1 $ADM2; do
  wait_ready "$port" || fail "node on admin port $port never became ready"
done

echo "net_smoke: steady-state load"
"$LOADGEN" --targets=127.0.0.1:$ADM0,127.0.0.1:$ADM1,127.0.0.1:$ADM2 \
  --stream=lines --publishers=4 --events=250 \
  --out="$WORK/BENCH_net.json" || fail "steady-state loadgen failed"

# Every node must serve its admin plane: healthz ready, metrics
# exposition parseable with the core families present.
for port in $ADM0 $ADM1 $ADM2; do
  curl -fsS "http://127.0.0.1:$port/healthz" > "$WORK/healthz_$port.json" \
    || fail "healthz on $port"
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["live"] and d["ready"], d' \
    "$WORK/healthz_$port.json" || fail "node on $port not live/ready"
  curl -fsS "http://127.0.0.1:$port/metrics" > "$WORK/metrics_$port.prom" \
    || fail "metrics on $port"
  python3 "$REPO_ROOT/tools/check_prom.py" "$WORK/metrics_$port.prom" \
    --require muppet_build_info \
    --require muppet_transport_messages_sent_total \
    --require muppet_http_connections_total \
    || fail "metrics exposition on $port"
done

# Traces: at 1 in 4 every node records spans, and span ids must be
# unique cluster-wide (perfbench and other /tracez readers key spans by id
# when they stitch a trace across nodes).
for port in $ADM0 $ADM1 $ADM2; do
  curl -fsS "http://127.0.0.1:$port/tracez" > "$WORK/tracez_$port.json" \
    || fail "tracez on $port"
done
python3 - "$WORK" $ADM0 $ADM1 $ADM2 <<'EOF' || fail "tracez check"
import json, sys
owner = {}
for port in sys.argv[2:]:
    doc = json.load(open("%s/tracez_%s.json" % (sys.argv[1], port)))
    traces = doc["recent"] + doc["slowest"]
    if not traces:
        sys.exit("node on %s: /tracez holds no traces" % port)
    for trace in traces:
        for span in trace["spans"]:
            first = owner.setdefault(span["span_id"], port)
            if first != port:
                sys.exit("span id %s recorded on nodes %s and %s"
                         % (span["span_id"], first, port))
print("net_smoke: %d span ids, none shared across nodes" % len(owner))
EOF

# Multi-node doctor scrape: a healthy steady-state cluster must produce
# no critical finding across all three nodes.
python3 "$REPO_ROOT/tools/muppet_doctor.py" \
  "http://127.0.0.1:$ADM0" "http://127.0.0.1:$ADM1" \
  "http://127.0.0.1:$ADM2" || fail "muppet-doctor found a critical issue"

echo "net_smoke: killing node 1 mid-run"
kill -9 "$PID1"
"$LOADGEN" --targets=127.0.0.1:$ADM0,127.0.0.1:$ADM2 \
  --stream=lines --publishers=4 --events=100 \
  || fail "loadgen through survivors failed"
curl -fsS "http://127.0.0.1:$ADM0/healthz" | python3 -c \
  'import json,sys; d=json.load(sys.stdin); assert d["live"], d' \
  || fail "survivor node 0 unhealthy during outage"

echo "net_smoke: restarting node 1"
PID1B=$(start_node 1 node1b.log)
wait_ready "$ADM1" || fail "restarted node 1 never became ready"
"$LOADGEN" --targets=127.0.0.1:$ADM0,127.0.0.1:$ADM1,127.0.0.1:$ADM2 \
  --stream=lines --publishers=4 --events=100 \
  || fail "loadgen after restart failed"

# Settle in-flight events, then every node must agree on the slate value
# for a hot word — node 1 and 2 answer via cross-process slate fetch.
curl -fsS -X POST "http://127.0.0.1:$ADM0/drainz" > /dev/null || true
sleep 1
counts=""
for port in $ADM0 $ADM1 $ADM2; do
  c=$(curl -fsS "http://127.0.0.1:$port/slate/count/fast") \
    || fail "slate fetch on $port"
  counts="$counts $c"
done
echo "net_smoke: slate answers:$counts"
[ "$(echo "$counts" | tr ' ' '\n' | sort -u | sed '/^$/d' | wc -l)" = "1" ] \
  || fail "nodes disagree on slate value:$counts"

# A client that connects and never sends (a stray nc or curl) must not
# stop node 0 from shutting down cleanly: HttpServer::Stop() shuts the
# connection down instead of waiting on it.
echo "net_smoke: clean shutdown (with a silent client on node 0)"
exec 3<>"/dev/tcp/127.0.0.1/$ADM0"
kill -TERM "$PID0" "$PID1B" "$PID2"
for _ in $(seq 1 100); do
  kill -0 "$PID0" 2>/dev/null || kill -0 "$PID1B" 2>/dev/null \
    || kill -0 "$PID2" 2>/dev/null || break
  sleep 0.2
done
grep -q 'stopped clean=1' "$WORK/node0.log" || fail "node 0 unclean shutdown"
grep -q 'stopped clean=1' "$WORK/node1b.log" || fail "node 1 unclean shutdown"
grep -q 'stopped clean=1' "$WORK/node2.log" || fail "node 2 unclean shutdown"
exec 3>&-

echo "net_smoke: gating BENCH_net.json against committed baseline"
python3 "$REPO_ROOT/tools/check_bench.py" "$REPO_ROOT/BENCH_net.json" \
  "$WORK/BENCH_net.json" || fail "throughput regression vs BENCH_net.json"

echo "net_smoke: OK (work dir $WORK)"
