#!/usr/bin/env bash
# Loopback cluster smoke test: boot a 3-node gcs_server cluster over real
# TCP on 127.0.0.1, drive concurrent client operations against every
# replica, scrape the live Stats endpoint from each replica mid-load
# (gcs_top --once --assert-live), and assert all three report the same
# total-order digest.  Then the crash-recovery gate, run twice: kill -9
# one replica, write more through the survivors, boot it back on the same
# --data-dir (once before monitoring excludes it, once after, through a
# fresh join, both with load running through node 0) and assert it
# recovers via log replay plus the sponsor's state image and reconverges,
# and that commuting ops through it take the fast path.  Finally no frame
# may have been dropped for exceeding the output cap.  Each server
# also appends a telemetry JSONL time-series into $logdir, checked for
# well-formedness at the end.
#
#   scripts/loopback_smoke.sh [logdir]
#
# Exits non-zero (and leaves server logs in $logdir) on any failure.
# CI runs this under `timeout`; locally it takes a few seconds.
set -u

LOGDIR="${1:-smoke-logs}"
SERVER=_build/default/bin/gcs_server.exe
CLIENT=_build/default/bin/gcs_client.exe
TOP=_build/default/bin/gcs_top.exe
PEERS=7101,7102,7103
CPORTS=(8101 8102 8103)
PIDS=()

mkdir -p "$LOGDIR"

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAILURE: $*" >&2
  for i in 0 1 2; do
    echo "--- last log lines, node $i ---" >&2
    tail -5 "$LOGDIR/server-$i.log" >&2 || true
  done
  exit 1
}

dune build bin/gcs_server.exe bin/gcs_client.exe bin/gcs_top.exe || fail "build"

for i in 0 1 2; do
  "$SERVER" --id "$i" --peers "$PEERS" --client-port "${CPORTS[$i]}" \
    --data-dir "$LOGDIR/data-$i" \
    --telemetry-interval 250 --telemetry-file "$LOGDIR/telemetry-$i.jsonl" \
    >"$LOGDIR/server-$i.log" 2>&1 &
  PIDS+=($!)
done

# Wait for the cluster to accept clients: retry the first write.
ok=""
for _ in $(seq 1 20); do
  sleep 0.5
  if "$CLIENT" put --server "${CPORTS[0]}" boot up --timeout 5000 >/dev/null 2>&1; then
    ok=1
    break
  fi
done
[ -n "$ok" ] || fail "cluster did not come up"

# Concurrent mixed load against every replica.
LOAD_PIDS=()
for i in 0 1 2; do
  "$CLIENT" load --server "${CPORTS[$i]}" --ops 400 --conflicting 30 \
    --timeout 15000 >"$LOGDIR/load-$i.out" 2>&1 &
  LOAD_PIDS+=($!)
done

# Mid-load: scrape the admin Stats endpoint from every replica and gate
# on liveness — parseable snapshots, delivered abcast traffic, populated
# submit->deliver latency histograms (finite p99), event-loop profiling,
# and matching order digests.  Digests may legitimately differ while
# ordered traffic is in flight (replicas at different prefixes of the
# same order), so the gate retries briefly before declaring failure.
sleep 1
top_ok=""
for _ in 1 2 3 4 5; do
  if "$TOP" --servers "${CPORTS[0]},${CPORTS[1]},${CPORTS[2]}" --once --assert-live \
      >"$LOGDIR/gcs_top.out" 2>&1; then
    top_ok=1
    break
  fi
  sleep 1
done
cat "$LOGDIR/gcs_top.out"
[ -n "$top_ok" ] || fail "gcs_top --assert-live"

for pid in "${LOAD_PIDS[@]}"; do
  wait "$pid" || true
done
for i in 0 1 2; do
  grep -q "op/s" "$LOGDIR/load-$i.out" || fail "load generator $i failed: $(cat "$LOGDIR/load-$i.out")"
done

# A few targeted ops through different replicas.
"$CLIENT" put  --server "${CPORTS[1]}" color blue --timeout 10000 >/dev/null || fail "put via node 1"
"$CLIENT" incr --server "${CPORTS[2]}" hits 5     --timeout 10000 >/dev/null || fail "incr via node 2"
v=$("$CLIENT" get --server "${CPORTS[0]}" color --timeout 10000) || fail "get via node 0"
[ "$v" = "blue" ] || fail "read your writes: got '$v', want 'blue'"

# Let in-flight commuting traffic quiesce, then compare replica digests.
sleep 2
digests=()
for i in 0 1 2; do
  d=$("$CLIENT" dump --server "${CPORTS[$i]}" --timeout 10000) || fail "dump via node $i"
  echo "replica $i: $d"
  digests+=("$(echo "$d" | sed 's/ .*//')")
done
[ "${digests[0]}" = "${digests[1]}" ] || fail "order digests diverge (0 vs 1)"
[ "${digests[0]}" = "${digests[2]}" ] || fail "order digests diverge (0 vs 2)"

# Sum one Prometheus counter from a replica's stats endpoint.
counter() {
  local prom
  prom=$("$CLIENT" stats --server "$1" --prom --timeout 10000) || return 1
  printf '%s\n' "$prom" \
    | awk -v m="$2" '$1 ~ "^" m "(\\{|$)" { s += int($2) } END { print s + 0 }'
}

# Loop `gcs_client load` through node 0 until $LOGDIR/$2 exists; $1 is the
# --conflicting percentage.  Starts in the background, sets LOOP_PID.
load_until() {
  (
    while [ ! -e "$LOGDIR/$2" ]; do
      "$CLIENT" load --server "${CPORTS[0]}" --ops 100 --conflicting "$1" \
        --timeout 20000 || exit 1
    done
  ) >"$LOGDIR/load-until-$2.out" 2>&1 &
  LOOP_PID=$!
}

# Boot node 2 again on its --data-dir, joining via node 0; $1 names the
# telemetry file.  Then wait until node 2 reads key `phase` as $2.
restart_node2() {
  "$SERVER" --id 2 --peers "$PEERS" --client-port "${CPORTS[2]}" \
    --data-dir "$LOGDIR/data-2" --join-via 0 \
    --telemetry-interval 250 --telemetry-file "$LOGDIR/telemetry-2-$1.jsonl" \
    >"$LOGDIR/server-2-$1.log" 2>&1 &
  PIDS[2]=$!
  local v
  for _ in $(seq 1 30); do
    sleep 0.5
    if v=$("$CLIENT" get --server "${CPORTS[2]}" phase --timeout 5000 2>/dev/null) \
        && [ "$v" = "$2" ]; then
      return 0
    fi
  done
  return 1
}

# Commuting ops through the reborn replica must take the fast path: a
# rejoined replica that kept ordered ops the sponsor's image covers would
# freeze on every commuting op, and no member would deliver fast again.
fast_path_gate() {
  local fast0 fast1
  fast0=$(counter "${CPORTS[2]}" gcs_gbcast_fast_deliveries) || fail "stats via node 2"
  "$CLIENT" load --server "${CPORTS[2]}" --ops 200 --conflicting 0 \
    --timeout 20000 >"$LOGDIR/load-commute-$1.out" 2>&1 \
    || fail "commuting load via node 2 ($1): $(cat "$LOGDIR/load-commute-$1.out")"
  fast1=$(counter "${CPORTS[2]}" gcs_gbcast_fast_deliveries) || fail "stats via node 2"
  echo "node 2 fast deliveries under commuting load ($1): $fast0 -> $fast1"
  [ "$fast1" -gt "$fast0" ] || fail "node 2 lost the fast path after rejoining ($1)"
}

# A write through the reborn replica, then the whole dump line on every
# replica: order chain, state digest, ordered and commuting counts.  The
# reborn replica took its applied-set and order chain from the sponsor's
# image, so all four must match.
dumps_agree() {
  "$CLIENT" incr --server "${CPORTS[2]}" hits 7 --timeout 10000 >/dev/null \
    || fail "incr via restarted node 2 ($1)"
  sleep 2
  local dumps=() d
  for i in 0 1 2; do
    d=$("$CLIENT" dump --server "${CPORTS[$i]}" --timeout 10000) || fail "$1 dump via node $i"
    echo "replica $i ($1): $d"
    dumps+=("$d")
  done
  [ "${dumps[0]}" = "${dumps[1]}" ] || fail "$1 dumps diverge (0 vs 1)"
  [ "${dumps[0]}" = "${dumps[2]}" ] || fail "$1 dumps diverge (0 vs 2)"
}

# Crash recovery, restart before exclusion: kill -9 a replica and boot
# it back on the same --data-dir while ordered load keeps running through
# node 0.  It must replay its own durable log, install the sponsor's state
# image, reconverge on the same digest, and keep the commuting fast path.
# Ordered ops need no ack from node 2, so nothing stalls, monitoring has
# not yet excluded it, and the members keep sending it ops that the
# sponsor's image will cover.  Ordered only: a commuting op in flight here
# would wait for node 2's ack until the next ordered op, which a
# closed-loop client never sends (ROADMAP item 1).
echo "--- crash recovery phase: kill -9 node 2, restart before exclusion ---"
kill -9 "${PIDS[2]}" 2>/dev/null || fail "could not kill node 2"
wait "${PIDS[2]}" 2>/dev/null || true
"$CLIENT" put --server "${CPORTS[1]}" phase resync --timeout 10000 >/dev/null \
  || fail "put via survivor after kill -9"
load_until 100 resynced
restart_node2 resynced resync || fail "node 2 did not recover from its restart before exclusion"
touch "$LOGDIR/resynced"
wait "$LOOP_PID" \
  || fail "ordered load via node 0 across the restart: $(cat "$LOGDIR/load-until-resynced.out")"

# The sponsor must have served the rejoin with its state image.
fulls=$(counter "${CPORTS[0]}" gcs_server_full_transfers) || fail "stats via node 0"
[ "$fulls" -ge 1 ] || fail "sponsor served no state transfer (full_transfers=$fulls)"

fast_path_gate resync
dumps_agree post-resync
echo "restart before exclusion OK: node 2 reconverged and kept the fast path"

# Crash recovery through a fresh join: kill -9 node 2 again and keep a
# mixed load running through the survivors.  Its commuting ops stall
# until monitoring excludes node 2, so node 2 comes back through a fresh
# join, with mixed load still running through node 0.
echo "--- crash recovery phase: kill -9 node 2, rejoin after exclusion ---"
kill -9 "${PIDS[2]}" 2>/dev/null || fail "could not kill node 2 again"
wait "${PIDS[2]}" 2>/dev/null || true

"$CLIENT" load --server "${CPORTS[0]}" --ops 300 --conflicting 30 \
  --timeout 20000 >"$LOGDIR/load-postkill.out" 2>&1 \
  || fail "load via survivors after kill -9: $(cat "$LOGDIR/load-postkill.out")"
"$CLIENT" put --server "${CPORTS[1]}" phase recovery --timeout 10000 >/dev/null \
  || fail "put via survivor after kill -9"

load_until 30 rejoined
restart_node2 restarted recovery || fail "restarted node 2 did not recover the missed writes"
touch "$LOGDIR/rejoined"
wait "$LOOP_PID" \
  || fail "mixed load via node 0 across the restart: $(cat "$LOGDIR/load-until-rejoined.out")"

fulls=$(counter "${CPORTS[0]}" gcs_server_full_transfers) || fail "stats via node 0"
[ "$fulls" -ge 2 ] || fail "sponsor served no second state transfer (full_transfers=$fulls)"

fast_path_gate rejoin
dumps_agree post-recovery
echo "crash recovery OK: node 2 rebooted from its log and reconverged (full transfers: $fulls)"

# No replica may have dropped a frame longer than the output cap: such a
# frame can never be sent, and its retransmissions would fail the same way.
for i in 0 1 2; do
  over=$(counter "${CPORTS[$i]}" gcs_net_tx_oversize) || fail "stats via node $i"
  [ "$over" -eq 0 ] || fail "node $i dropped $over oversize frames"
done

# Every server's telemetry time-series must exist, have accumulated
# several snapshots, and parse line-by-line as JSON with the expected
# members (checked with python3 when available).
for i in 0 1 2; do
  tf="$LOGDIR/telemetry-$i.jsonl"
  [ -s "$tf" ] || fail "telemetry file for node $i missing or empty"
  lines=$(wc -l <"$tf")
  [ "$lines" -ge 3 ] || fail "telemetry file for node $i has only $lines lines"
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$LOGDIR" <<'PY' || fail "telemetry JSONL malformed"
import json, sys
logdir = sys.argv[1]
for i in range(3):
    with open(f"{logdir}/telemetry-{i}.jsonl") as f:
        for ln, line in enumerate(f, 1):
            rec = json.loads(line)
            assert rec["node"] == i, (i, ln, rec.get("node"))
            assert "ts" in rec and "stats" in rec, (i, ln)
            assert "metrics" in rec["stats"], (i, ln)
print("telemetry JSONL well-formed on all 3 replicas")
PY
fi

echo "SMOKE OK: identical total order on all 3 replicas"
