#!/usr/bin/env bash
# loadtest.sh — fire thousands of concurrent espctl submissions at one
# espserved and check that the service holds up:
#
#   - every submission is accepted and reaches a terminal state
#   - zero jobs are dropped (submitted == succeeded), duplicated
#     (every returned job ID is unique), failed, canceled or rejected
#   - submit latency percentiles (p50/p95/p99) are reported from the
#     daemon's own Prometheus histogram, not client-side timing
#
# Usage:
#   scripts/loadtest.sh [jobs] [concurrency]
#
# Defaults: 2000 jobs, 64 concurrent submitters. Jobs reuse 16 distinct
# seeds, so the daemon's content-addressed cache turns most of the load
# into lookups — this stresses the service plane (queue, scheduler,
# HTTP), not the simulator.
set -euo pipefail

JOBS=${1:-2000}
CONC=${2:-64}
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
BIN=$WORK/bin
mkdir -p "$BIN"
go build -o "$BIN/espserved" ./cmd/espserved
go build -o "$BIN/espctl" ./cmd/espctl

"$BIN/espserved" -addr 127.0.0.1:0 -queue 4096 -retain -1 >"$WORK/espserved.out" 2>"$WORK/espserved.err" &
PID=$!
cleanup() {
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

for _ in $(seq 1 50); do
    grep -q '^espserved listening on ' "$WORK/espserved.out" && break
    sleep 0.2
done
ADDR=$(sed -n 's/^espserved listening on //p' "$WORK/espserved.out")
[ -n "$ADDR" ] || { echo "espserved did not start: $(cat "$WORK/espserved.err")" >&2; exit 1; }
echo "espserved at http://$ADDR"

echo "submitting $JOBS jobs ($CONC concurrent, 16 distinct cells)..."
START=$(date +%s)
seq 1 "$JOBS" | xargs -P "$CONC" -I{} sh -c \
    '"$0" -addr "http://$1" submit -workload apache -seed $((1 + {} % 16)) -warmup 4000 -instructions 1500' \
    "$BIN/espctl" "$ADDR" >"$WORK/ids.txt"
SUBMIT_SECS=$(( $(date +%s) - START ))

# Every submission returned a job ID, and no two returned the same one.
IDS=$(wc -l <"$WORK/ids.txt")
UNIQ=$(sort -u "$WORK/ids.txt" | wc -l)
[ "$IDS" -eq "$JOBS" ] || { echo "FAIL: $IDS/$JOBS submissions returned an ID" >&2; exit 1; }
[ "$UNIQ" -eq "$JOBS" ] || { echo "FAIL: duplicated job IDs ($UNIQ unique of $IDS)" >&2; exit 1; }

echo "all $JOBS accepted in ${SUBMIT_SECS}s; waiting for the queue to drain..."
for _ in $(seq 1 600); do
    DONE=$(curl -fsS "http://$ADDR/metricsz" | python3 -c '
import json, sys
c = json.load(sys.stdin)["counters"]
print(c["service.jobs_succeeded"] + c["service.jobs_failed"] + c["service.jobs_canceled"])')
    [ "$DONE" -ge "$JOBS" ] && break
    sleep 0.5
done

curl -fsS "http://$ADDR/metricsz" >"$WORK/metrics.json"
curl -fsS "http://$ADDR/metricsz?format=prom" >"$WORK/metrics.prom"
python3 - "$WORK/metrics.json" "$WORK/metrics.prom" "$JOBS" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
jobs = int(sys.argv[3])
c = m["counters"]

assert c["service.jobs_submitted"] == jobs, f"submitted {c['service.jobs_submitted']} != {jobs}"
assert c["service.jobs_succeeded"] == jobs, f"succeeded {c['service.jobs_succeeded']} != {jobs} (dropped jobs)"
assert c["service.jobs_failed"] == 0, f"{c['service.jobs_failed']} jobs failed"
assert c["service.jobs_canceled"] == 0, f"{c['service.jobs_canceled']} jobs canceled"
assert c["service.jobs_rejected"] == 0, f"{c['service.jobs_rejected']} jobs rejected (queue overflow)"

# Submit-path latency percentiles straight from the Prometheus
# histogram buckets (cumulative counts per upper bound).
buckets = []
for line in open(sys.argv[2]):
    if line.startswith("service_http_latency_ms_post_v1_jobs_bucket{le="):
        le = line.split('le="', 1)[1].split('"', 1)[0]
        n = int(line.rsplit(" ", 1)[1])
        buckets.append((float("inf") if le == "+Inf" else float(le), n))
buckets.sort()
total = buckets[-1][1]
assert total == jobs, f"histogram count {total} != {jobs}"

def pct(p):
    target = p * total
    for le, cum in buckets:
        if cum >= target:
            return "<=%gms" % le if le != float("inf") else ">%gms" % buckets[-2][0]
    return "?"

print(f"submit latency over {total} requests: "
      f"p50 {pct(0.50)}  p95 {pct(0.95)}  p99 {pct(0.99)}")
print("OK: zero dropped, duplicated, failed, canceled or rejected jobs")
EOF
