#!/usr/bin/env bash
# bench.sh — measure the simulator's hot-path benchmark, or gate CI on the
# committed allocation baseline.
#
#   scripts/bench.sh            run BenchmarkFullRun and print the numbers
#   scripts/bench.sh check      additionally fail if allocs/op exceeds the
#                               gate.max_allocs_op field of BENCH_5.json
#   scripts/bench.sh sample     run the sampled-mode validation harness at
#                               the committed BENCH_6.json configuration
#                               (full vs K-window sampled runs of the
#                               largest catalog workload across the paper's
#                               seven architectures) and fail if any
#                               relative error or the full/sampled speedup
#                               violates the gate.* fields of BENCH_6.json
#
# ns/op is reported but never gated: wall-clock varies with the runner's
# hardware, while allocs/op is deterministic for a fixed workload and is
# the signal a regression on the zero-allocation hot path shows up in
# first (a single reintroduced closure per tag lookup costs ~5 allocs per
# access, i.e. tens of thousands per run). The sample-mode speedup gate is
# a ratio of two wall clocks on the same machine, so — unlike raw ns/op —
# it measures the work reduction and is stable across runners.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-measure}"
BENCHTIME="${BENCHTIME:-20x}"
BASELINE="BENCH_5.json"
SAMPLE_BASELINE="BENCH_6.json"

if [ "$MODE" = "sample" ]; then
    WL=$(jq -r .workload "$SAMPLE_BASELINE")
    WARM=$(jq -r .warmup "$SAMPLE_BASELINE")
    INSTR=$(jq -r .instructions "$SAMPLE_BASELINE")
    K=$(jq -r .sample_windows "$SAMPLE_BASELINE")
    echo "bench.sh: sampled-mode validation — workload=$WL warmup=$WARM instructions=$INSTR windows=$K"
    ROWS=$(go run ./cmd/espsweep -sample-error "$WL" -sample-windows "$K" \
        -warmup "$WARM" -instructions "$INSTR")
    printf '%-10s %10s %10s %10s %10s %9s\n' ARCH 'THR-ERR%' 'AAT-ERR%' 'OFF-ERR%' 'CI95%' SPEEDUP
    echo "$ROWS" | jq -r '.[] | [.Arch, (.Throughput*100), (.AvgAccessTime*100),
        (.OffChipAccesses*100), (.RelCI95*100), (.FullSeconds/.SampledSeconds)] | @tsv' |
        while IFS=$'\t' read -r a t x o c s; do
            printf '%-10s %10.2f %10.2f %10.2f %10.2f %8.2fx\n' "$a" "$t" "$x" "$o" "$c" "$s"
        done

    MAX_THR=$(jq -r .gate.max_rel_err_throughput "$SAMPLE_BASELINE")
    MAX_AAT=$(jq -r .gate.max_rel_err_avg_access_time "$SAMPLE_BASELINE")
    MIN_SPD=$(jq -r .gate.min_speedup "$SAMPLE_BASELINE")
    BAD=$(echo "$ROWS" | jq --argjson t "$MAX_THR" --argjson a "$MAX_AAT" --argjson s "$MIN_SPD" \
        '[.[] | select(.Throughput > $t or .AvgAccessTime > $a
                       or (.FullSeconds / .SampledSeconds) < $s) | .Arch]')
    if [ "$(echo "$BAD" | jq length)" -gt 0 ]; then
        echo "bench.sh: FAIL — $(echo "$BAD" | jq -rc .) violate the BENCH_6 gate" >&2
        echo "bench.sh: (gate: throughput err <= $MAX_THR, access-time err <= $MAX_AAT, speedup >= $MIN_SPD)" >&2
        exit 1
    fi
    echo "bench.sh: OK — all architectures within BENCH_6 gate (thr err <= $MAX_THR, aat err <= $MAX_AAT, speedup >= $MIN_SPD)"
    exit 0
fi

OUT=$(go test -run '^$' -bench 'BenchmarkFullRun$' -benchtime "$BENCHTIME" -benchmem .)
echo "$OUT"

LINE=$(echo "$OUT" | grep -E '^BenchmarkFullRun\b' | head -1)
if [ -z "$LINE" ]; then
    echo "bench.sh: BenchmarkFullRun produced no result line" >&2
    exit 1
fi
NS=$(echo "$LINE" | awk '{for (i=1; i<=NF; i++) if ($i == "ns/op") print $(i-1)}')
ALLOCS=$(echo "$LINE" | awk '{for (i=1; i<=NF; i++) if ($i == "allocs/op") print $(i-1)}')

echo
echo "bench.sh: ns/op=${NS} allocs/op=${ALLOCS}"

if [ "$MODE" = "check" ]; then
    MAX=$(grep -o '"max_allocs_op"[: ]*[0-9]*' "$BASELINE" | grep -o '[0-9]*$')
    if [ -z "$MAX" ]; then
        echo "bench.sh: no gate.max_allocs_op in $BASELINE" >&2
        exit 1
    fi
    if [ "$ALLOCS" -gt "$MAX" ]; then
        echo "bench.sh: FAIL — allocs/op ${ALLOCS} exceeds the committed baseline gate ${MAX}" >&2
        echo "bench.sh: (an allocation crept back onto the access hot path; profile with" >&2
        echo "bench.sh:  go test -run '^\$' -bench 'BenchmarkFullRun\$' -memprofile mem.out .)" >&2
        exit 1
    fi
    echo "bench.sh: OK — allocs/op ${ALLOCS} within gate ${MAX} (ns/op reported, not gated)"
fi
