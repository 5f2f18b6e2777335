#!/usr/bin/env bash
# bench.sh — record the pipeline's perf trajectory across PRs.
#
# Runs the 20k-row Protect / Detect / MultiBin benchmarks plus the
# incremental-ingestion pair (Append2k vs Reprotect22k), the
# multi-recipient traceback (Traceback50: one 20k suspect against 50
# registered recipients) and the streaming data plane pair
# (Protect200k for scale, ApplyStream1M for the segment-at-a-time
# million-row path — its bytes_op is the bounded-memory claim) and the
# async job layer (JobThroughput: 500-row protect jobs through HTTP
# submit + a 4-worker pool) and the streaming planner pair
# (PlanStream1M: one-pass sketch planning over a million rows;
# PlanApplyStream10M: plan + apply end-to-end at ten million — the
# heavyweight entry, minutes per repetition) and the read-side perf
# plane (Fingerprint16: one shared transform fanned out to 16
# recipients; DetectStream1M: segment-at-a-time detection over a
# million rows — its bytes_op is the read-side bounded-memory claim)
# and the binning search layer at the release shape (SearchSketch1M:
# one search over a million-row sketch) and the greedy ascent pair
# (MultiGreedyIncremental vs MultiGreedyRescan on the 20k fixture, from
# internal/binning) with
# -benchmem and appends one labelled entry (best-of-N ns/op, plus B/op
# and allocs/op) per benchmark to BENCH_pipeline.json at the repo root,
# so representation regressions show up as a diff in review.
#
# Before appending, the fresh numbers are gated against the last
# recorded entry: a >15% ns/op regression on Protect20k, Detect20k,
# MultiBinGreedy, Traceback50, Append2k or JobThroughput fails the
# script, so a slowdown on the core pipeline or the serving layer
# cannot be recorded silently. The incremental greedy ascent must also
# stay >= 1.3x faster than the rescan reference it is tested against,
# or the script fails.
#
# Usage: scripts/bench.sh [label]
#   label   entry label (default: git describe of HEAD)
#   COUNT   benchmark repetitions (default 3; best run is recorded)
set -euo pipefail

cd "$(dirname "$0")/.."

LABEL="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabelled)}"
COUNT="${COUNT:-3}"
OUT="BENCH_pipeline.json"
PATTERN='BenchmarkProtect20k$|BenchmarkDetect20k$|BenchmarkMultiBinGreedy$|BenchmarkAppend2k$|BenchmarkReprotect22k$|BenchmarkTraceback50$|BenchmarkProtect200k$|BenchmarkApplyStream1M$|BenchmarkJobThroughput$|BenchmarkPlanStream1M$|BenchmarkPlanApplyStream10M$|BenchmarkFingerprint16$|BenchmarkDetectStream1M$|BenchmarkSearchSketch1M$'

RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" .)
$(go test -run '^$' -bench 'BenchmarkMultiGreedy(Incremental|Rescan)$' -benchmem -count "$COUNT" ./internal/binning)"
echo "$RAW"

best_ns() {
  echo "$RAW" | awk -v n="$1" '
    $1 ~ "^"n"(-[0-9]+)?$" { if (best == "" || $3 + 0 < best + 0) best = $3 }
    END { print best }'
}

# Ratio gate: the incremental greedy ascent must beat its rescan oracle
# by >= 1.3x (best-of-N ns/op each).
inc="$(best_ns BenchmarkMultiGreedyIncremental)"
ref="$(best_ns BenchmarkMultiGreedyRescan)"
if [ -z "$inc" ] || [ -z "$ref" ] || awk -v i="$inc" -v r="$ref" 'BEGIN { exit !(i * 1.3 > r + 0) }'; then
  echo "bench.sh: incremental greedy ascent ${inc:-?} ns/op vs rescan ${ref:-?} ns/op; want >= 1.3x speedup; entry not appended" >&2
  exit 1
fi

ENTRY="$(echo "$RAW" | awk -v label="$LABEL" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix if present
    ns = $3; bytes = $5; allocs = $7
    if (!(name in best) || ns + 0 < best[name] + 0) {
      best[name] = ns; b[name] = bytes; a[name] = allocs
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "  {\n    \"label\": \"%s\",\n    \"date\": \"%s\",\n    \"benchmarks\": {\n", label, date
    for (i = 1; i <= n; i++) {
      name = order[i]
      printf "      \"%s\": {\"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s}%s\n", \
        name, best[name], b[name], a[name], (i < n ? "," : "")
    }
    printf "    }\n  }"
  }')"

if [ -z "$ENTRY" ]; then
  echo "bench.sh: no benchmark output parsed" >&2
  exit 1
fi

# Regression gate: compare the fresh best-of-N ns/op for the core
# pipeline and serving-layer benchmarks against the last recorded entry
# and refuse to append a >15% slowdown. (The streaming benchmarks are
# capacity numbers, not latency gates, so they are recorded but not
# enforced.)
if [ -f "$OUT" ]; then
  for name in BenchmarkProtect20k BenchmarkDetect20k BenchmarkMultiBinGreedy \
              BenchmarkTraceback50 BenchmarkAppend2k BenchmarkJobThroughput; do
    last="$(grep -o "\"$name\": {\"ns_op\": [0-9]*" "$OUT" | tail -1 | grep -o '[0-9]*$' || true)"
    [ -z "$last" ] && continue
    fresh="$(best_ns "$name")"
    [ -z "$fresh" ] && continue
    if awk -v f="$fresh" -v l="$last" 'BEGIN { exit !(f + 0 > l * 1.15) }'; then
      echo "bench.sh: $name regressed: $fresh ns/op vs $last ns/op last recorded (>15%); entry not appended" >&2
      exit 1
    fi
  done
fi

if [ ! -f "$OUT" ]; then
  printf '[\n%s\n]\n' "$ENTRY" > "$OUT"
else
  # append the entry before the closing bracket (portable: no GNU-only
  # head -n -1 / in-place sed)
  awk '{ lines[NR] = $0 } END { sub(/}$/, "},", lines[NR-1]); for (i = 1; i < NR; i++) print lines[i] }' \
    "$OUT" > "$OUT.tmp"
  printf '%s\n]\n' "$ENTRY" >> "$OUT.tmp"
  mv "$OUT.tmp" "$OUT"
fi

echo "recorded entry \"$LABEL\" in $OUT"
