#!/usr/bin/env bash
# bench.sh — measure the simulator's hot-path benchmark, or gate CI on the
# committed allocation baseline.
#
#   scripts/bench.sh            run BenchmarkFullRun and print the numbers
#   scripts/bench.sh check      additionally fail if allocs/op exceeds the
#                               gate.max_allocs_op field of BENCH_5.json
#
# ns/op is reported but never gated: wall-clock varies with the runner's
# hardware, while allocs/op is deterministic for a fixed workload and is
# the signal a regression on the zero-allocation hot path shows up in
# first (a single reintroduced closure per tag lookup costs ~5 allocs per
# access, i.e. tens of thousands per run).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-measure}"
BENCHTIME="${BENCHTIME:-20x}"
BASELINE="BENCH_5.json"

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
