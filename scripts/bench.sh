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
# one search over a million-row sketch) and the sketch ingest layer
# (SketchAdd1M: one sketch built from the segments of a million rows;
# also reports rows/s, not recorded) and the relation ingest layer
# (SegmentReader1M: one byte-level segment reader drained over a
# million-row release CSV in memory; it also reports rows/s, which the
# entry does not record) and the relation egress layer (SegmentWriter1M:
# the protected segments of the ApplyStream1M fixture written by one
# byte-level SegmentWriter to io.Discard; also reports rows/s, not
# recorded) and, from internal/binning, the greedy ascent
# pair (MultiGreedyIncremental vs MultiGreedyRescan on the 20k fixture)
# and the transform layer (TransformContext1M: identifier encryption plus
# generalization over the segments of a million rows), and, from
# internal/watermark, the Equation (5) layers over the segments of a
# million rows with encrypted identifiers: selection (SelectForEmbed1M),
# the embed walk over a precomputed selection (EmbedSelected1M) and one
# candidate's vote walk over a prepared suspect (Accumulate1M) — all
# also report rows/s, not recorded — and the plans behind the service's
# small requests (Plan2kAggressive: a 2k-row aggressive protect job;
# Plan5k: a 5k-row fingerprint; recorded, not gated) — with -benchmem and appends one labelled entry (best-of-N ns/op, plus B/op
# and allocs/op) per benchmark to BENCH_pipeline.json at the repo root,
# so representation regressions show up as a diff in review. Each entry
# also records the machine it was measured on (CPU model, nproc, Go
# version): entries from different machines are not comparable.
#
# Before appending, the fresh numbers are gated against the last
# recorded entry: a >15% ns/op regression on Protect20k, Detect20k,
# MultiBinGreedy, Traceback50, Append2k, JobThroughput or
# SearchSketch1M fails the script, so a slowdown on the core pipeline,
# the serving layer or the binning search layer cannot be recorded
# silently. Four ratio gates also fail the script: the incremental
# greedy ascent must stay >= 1.3x faster than the rescan reference it is
# tested against; one Traceback50 (50 recipients, one shared selection)
# must stay >= 2x faster than 50 independent Detect20k calls; Append2k
# (no binning search) must stay >= 5x faster than Reprotect22k; and one
# Fingerprint16 (one plan, one transform, one selection) must stay >= 3x
# faster than 16 Protect20k calls, one plan + apply per copy.
#
# Usage: scripts/bench.sh [label]
#   label   entry label (default: git describe of HEAD)
#   COUNT   benchmark repetitions (default 3; best run is recorded)
set -euo pipefail

cd "$(dirname "$0")/.."

LABEL="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabelled)}"
COUNT="${COUNT:-3}"
OUT="BENCH_pipeline.json"
PATTERN='BenchmarkProtect20k$|BenchmarkDetect20k$|BenchmarkMultiBinGreedy$|BenchmarkAppend2k$|BenchmarkReprotect22k$|BenchmarkTraceback50$|BenchmarkProtect200k$|BenchmarkApplyStream1M$|BenchmarkJobThroughput$|BenchmarkPlanStream1M$|BenchmarkPlanApplyStream10M$|BenchmarkFingerprint16$|BenchmarkDetectStream1M$|BenchmarkSearchSketch1M$|BenchmarkSketchAdd1M$|BenchmarkSegmentReader1M$|BenchmarkSegmentWriter1M$|BenchmarkPlan2kAggressive$|BenchmarkPlan5k$'

# The root package's run (PlanApplyStream10M included) takes ~9 minutes
# at COUNT=3 on a 2-vCPU machine, close to go test's 10-minute default
# timeout, so the timeout is raised.
RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" -timeout 60m .)
$(go test -run '^$' -bench 'BenchmarkMultiGreedy(Incremental|Rescan)$|BenchmarkTransformContext1M$' -benchmem -count "$COUNT" ./internal/binning)
$(go test -run '^$' -bench 'BenchmarkSelectForEmbed1M$|BenchmarkEmbedSelected1M$|BenchmarkAccumulate1M$' -benchmem -count "$COUNT" ./internal/watermark)"
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

# Ratio gate: one traceback over 50 recipients must beat 50 independent
# detections by >= 2x (best-of-N ns/op each).
det="$(best_ns BenchmarkDetect20k)"
tb="$(best_ns BenchmarkTraceback50)"
if [ -z "$det" ] || [ -z "$tb" ] || awk -v d="$det" -v t="$tb" 'BEGIN { exit !(50 * d < 2 * t) }'; then
  echo "bench.sh: Traceback50 ${tb:-?} ns/op vs 50 x Detect20k ${det:-?} ns/op; want >= 2x speedup; entry not appended" >&2
  exit 1
fi

# Ratio gate: appending 2k rows under a 20k-row plan must beat
# re-protecting the 22k-row union by >= 5x (best-of-N ns/op each).
app="$(best_ns BenchmarkAppend2k)"
rep="$(best_ns BenchmarkReprotect22k)"
if [ -z "$app" ] || [ -z "$rep" ] || awk -v a="$app" -v r="$rep" 'BEGIN { exit !(a * 5 > r + 0) }'; then
  echo "bench.sh: Append2k ${app:-?} ns/op vs Reprotect22k ${rep:-?} ns/op; want >= 5x speedup; entry not appended" >&2
  exit 1
fi

# Ratio gate: one fingerprint fan-out to 16 recipients must beat 16
# independent protections by >= 3x (best-of-N ns/op each).
prot="$(best_ns BenchmarkProtect20k)"
fp="$(best_ns BenchmarkFingerprint16)"
if [ -z "$prot" ] || [ -z "$fp" ] || awk -v p="$prot" -v f="$fp" 'BEGIN { exit !(16 * p < 3 * f) }'; then
  echo "bench.sh: Fingerprint16 ${fp:-?} ns/op vs 16 x Protect20k ${prot:-?} ns/op; want >= 3x speedup; entry not appended" >&2
  exit 1
fi

CPU="$(awk -F': *' '$1 ~ /^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\')"
NPROC="$(nproc 2>/dev/null || echo 0)"
GOVERSION="$(go env GOVERSION)"

ENTRY="$(echo "$RAW" | awk -v label="$LABEL" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  -v cpu="${CPU:-unknown}" -v nproc="$NPROC" -v gov="$GOVERSION" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix if present
    for (i = 3; i < NF; i++) {          # values precede their units
      if ($(i+1) == "ns/op") ns = $i
      else if ($(i+1) == "B/op") bytes = $i
      else if ($(i+1) == "allocs/op") allocs = $i
    }
    if (!(name in best) || ns + 0 < best[name] + 0) {
      best[name] = ns; b[name] = bytes; a[name] = allocs
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "  {\n    \"label\": \"%s\",\n    \"date\": \"%s\",\n", label, date
    printf "    \"machine\": {\"cpu\": \"%s\", \"nproc\": %d, \"go\": \"%s\"},\n", cpu, nproc, gov
    printf "    \"benchmarks\": {\n"
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
# pipeline, serving-layer and binning search benchmarks against the
# last recorded entry and refuse to append a >15% slowdown. (The
# streaming benchmarks and the other per-layer ones — SegmentReader1M,
# SegmentWriter1M, SketchAdd1M, TransformContext1M, SelectForEmbed1M, EmbedSelected1M,
# Accumulate1M, Plan2kAggressive, Plan5k — are capacity numbers, not
# latency gates, so they are recorded but not enforced.)
if [ -f "$OUT" ]; then
  for name in BenchmarkProtect20k BenchmarkDetect20k BenchmarkMultiBinGreedy \
              BenchmarkTraceback50 BenchmarkAppend2k BenchmarkJobThroughput \
              BenchmarkSearchSketch1M; do
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
