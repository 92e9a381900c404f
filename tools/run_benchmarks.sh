#!/usr/bin/env bash
# Builds (if needed) and smoke-runs every bench driver for one tiny
# iteration so benchmark bit-rot fails CI. Full paper-scale runs use the
# drivers directly with their default flags.
#
# usage: tools/run_benchmarks.sh [BUILD_DIR] [-- extra flags...]
set -euo pipefail

BUILD_DIR="build"
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
  BUILD_DIR="$1"
  shift
fi
[ "${1:-}" = "--" ] && shift

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DMASKSEARCH_BUILD_BENCHMARKS=ON
fi
cmake --build "$BUILD_DIR" -j"$(nproc)"

DATA_DIR="$(mktemp -d "${TMPDIR:-/tmp}/masksearch_bench_smoke.XXXXXX")"
trap 'rm -rf "$DATA_DIR"' EXIT

# Machine-readable results: every driver drops BENCH_<driver>.json here
# (CI uploads the directory as the perf-trajectory artifact).
JSON_DIR="${MASKSEARCH_BENCH_JSON_DIR:-$BUILD_DIR/bench_json}"
mkdir -p "$JSON_DIR"

# Tiny scales: each driver must finish in seconds, exercising the full
# dataset-generation -> index-build -> query path.
SMOKE_FLAGS=(
  "--data-dir=$DATA_DIR"
  "--wilds-scale=0.004"
  "--imagenet-scale=0.0004"
  "--queries=2"
  "--workload-queries=2"
  "--json-out=$JSON_DIR"
  "$@"
)

status=0
for driver in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$driver" ] && [ -f "$driver" ] || continue
  name="$(basename "$driver")"
  echo "==> $name"
  "$driver" --help >/dev/null 2>&1
  if [ "$name" = bench_micro_kernels ]; then
    # google-benchmark harness: its own flag set. min_time=0 runs the
    # minimum iteration count per kernel (the "1x" syntax needs >= 1.8).
    args=(--benchmark_min_time=0
          "--benchmark_out=$JSON_DIR/BENCH_micro_kernels.json"
          --benchmark_out_format=json)
  else
    args=("${SMOKE_FLAGS[@]}")
  fi
  if ! "$driver" "${args[@]}" >/dev/null; then
    echo "FAILED: $name" >&2
    status=1
  fi
done

# The narrative drivers stamp provenance themselves (bench_common.h); the
# google-benchmark JSON is written by its own harness, so inject the same
# stamps into its context block here.
if [ -f "$JSON_DIR/BENCH_micro_kernels.json" ]; then
  sha="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"
  ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  bt="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)"
  sed -i "s|^  \"context\": {|  \"context\": {\n    \"git_sha\": \"$sha\",\n    \"utc_timestamp\": \"$ts\",\n    \"build_type\": \"${bt:-unknown}\",|" \
    "$JSON_DIR/BENCH_micro_kernels.json"
fi

echo "bench JSON results:"
ls -l "$JSON_DIR"/BENCH_*.json 2>/dev/null || echo "  (none written)"

# The sharded-I/O, overlapped-pipeline, cold/warm cache, and cache-miss
# decode benches must be part of the micro-kernel run (guards against the
# perf-trajectory benches bit-rotting out of the driver).
for bench in BM_ShardedBatchIopBound BM_MaskAggVerifyPipeline \
             BM_CachedBatchLoadCold BM_CachedBatchLoadWarm \
             BM_RepeatedFilterWarmCache BM_CodecDecodeSaliency \
             BM_MaskFromData; do
  if ! grep -q "$bench" "$JSON_DIR/BENCH_micro_kernels.json" 2>/dev/null; then
    echo "MISSING: $bench not in BENCH_micro_kernels.json" >&2
    status=1
  fi
done

# The serving-layer driver must record both arrival modes (closed-loop
# client sweep + open-loop rate sweep), the scaling headline, admission
# rejects, per-class latency percentiles and latency-under-SLO attainment
# (docs/SERVING.md), the socket phase — prepared statements over real
# loopback sockets vs the identical in-process path (docs/NETWORK.md) —
# and the replicated tier: 2- and 4-replica scaling plus the failover
# error budget from a scripted mid-run kill (docs/REPLICATION.md) — plus
# the observability gates: tracing-overhead percentages against the
# untraced warm baseline and the record/replay fidelity marker
# (docs/OBSERVABILITY.md).
for key in closed_scaling_8x closed_clients_8_qps closed8_p99_ms \
           closed8_interactive_p50_ms open_rate_0_offered_qps \
           open_rate_2_rejected open_rate_0_p99_ms warm_qps \
           service_cache_hit_ratio socket_inproc_qps \
           socket_clients_8_qps socket_scaling_8x \
           socket_vs_inproc_ratio \
           open_rate_0_slo_attainment_interactive \
           open_rate_1_slo_attainment_normal \
           open_rate_2_slo_attainment_batch \
           replica_2_qps replica_4_qps replica_scaling_4v2 \
           failover_qps failover_error_budget \
           warm_qps_untraced warm_qps_traced \
           tracing_disabled_overhead_pct tracing_sampled_overhead_pct \
           record_requests replay_requests replay_mix_exact; do
  if ! grep -q "\"$key\"" "$JSON_DIR/BENCH_bench_service.json" 2>/dev/null; then
    echo "MISSING: $key not in BENCH_bench_service.json" >&2
    status=1
  fi
done

# Every bench JSON must carry its provenance stamps: which commit, when,
# and at what optimization level the numbers were produced.
for f in "$JSON_DIR"/BENCH_*.json; do
  [ -e "$f" ] || continue
  for key in git_sha utc_timestamp build_type; do
    if ! grep -q "\"$key\"" "$f"; then
      echo "MISSING: $key not in $(basename "$f")" >&2
      status=1
    fi
  done
done

# The streaming-ingest driver must record all three phases: pure ingest
# throughput + publish pauses, the query-latency/throughput interference
# profile while ingesting (docs/INGEST.md), and the compact-under-load
# maintenance profile (docs/COMPACTION.md) — including a non-zero
# dead_bytes_reclaimed, proving the tombstone -> compaction path sheds
# real disk weight.
for key in ingest_masks_per_sec ingest_mb_per_sec publish_p99_ms \
           chis_built query_p50_while_ingesting_ms \
           query_p99_while_ingesting_ms query_qps_while_ingesting \
           ingest_masks_per_sec_while_serving epochs_published \
           compact_mb_per_sec dead_bytes_reclaimed \
           query_p99_while_compacting_ms compact_swap_pause_p99_ms; do
  if ! grep -q "\"$key\"" "$JSON_DIR/BENCH_bench_ingest.json" 2>/dev/null; then
    echo "MISSING: $key not in BENCH_bench_ingest.json" >&2
    status=1
  fi
done
if grep -q '"dead_bytes_reclaimed": 0,\?$' \
    "$JSON_DIR/BENCH_bench_ingest.json" 2>/dev/null; then
  echo "FAILED: dead_bytes_reclaimed is zero — compaction reclaimed nothing" >&2
  status=1
fi

# Every narrative driver's JSON must record which cache mode ran (the
# --warmup-passes / --cold satellite of the cache subsystem).
for json in "$JSON_DIR"/BENCH_*.json; do
  [ "$(basename "$json")" = BENCH_micro_kernels.json ] && continue
  if ! grep -q '"cache_cold"' "$json"; then
    echo "MISSING: cache_cold mode marker not in $(basename "$json")" >&2
    status=1
  fi
done

exit $status
