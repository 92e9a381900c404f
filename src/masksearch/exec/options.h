// Execution options shared by all executors.

#ifndef MASKSEARCH_EXEC_OPTIONS_H_
#define MASKSEARCH_EXEC_OPTIONS_H_

#include <atomic>
#include <chrono>

#include "masksearch/common/status.h"
#include "masksearch/common/thread_pool.h"

namespace masksearch {

class ChiCache;

/// \brief Per-request cancellation + deadline state (docs/SERVING.md).
///
/// Executors poll Check() at batch boundaries — between the verification
/// batches of the pipeline all four executors share — and abort with a
/// typed DeadlineExceeded / Cancelled status. Polling at batch granularity
/// keeps the hot per-pixel loops branch-free: a request overruns its
/// deadline by at most one batch of work. One QueryControl belongs to one request; it
/// may be Cancel()ed from any thread while the request executes.
struct QueryControl {
  /// Absolute expiry; time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::atomic<bool> cancelled{false};

  void Cancel() { cancelled.store(true, std::memory_order_relaxed); }

  bool HasDeadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  Status Check() const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (HasDeadline() && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

/// \brief Check() of an optional control; OK when `control` is null.
inline Status CheckControl(const QueryControl* control) {
  return control == nullptr ? Status::OK() : control->Check();
}

/// \brief Knobs selecting between the paper's execution regimes.
struct EngineOptions {
  /// Thread pool for the parallel filter stage (§3.2.1); null = inline.
  ThreadPool* pool = nullptr;

  /// If false, the filter stage is skipped entirely and every targeted mask
  /// is loaded and evaluated — the behaviour of the baselines. Used to run
  /// apples-to-apples comparisons through the same executor code.
  bool use_index = true;

  /// Incremental indexing (§3.6): when a mask without a CHI must be loaded
  /// anyway, build and register its CHI for future queries (MS-II). When
  /// false, masks without CHIs are still answered correctly (loaded and
  /// scanned) but no index is built.
  bool build_missing = true;

  /// Top-k processing order: when true, masks are processed in decreasing
  /// upper-bound order (increasing lower bound for ASC queries), which
  /// tightens the running threshold faster than the paper's sequential
  /// order. The ablation bench quantifies the difference.
  bool sort_by_bound = true;

  /// Group-verification batch size for ExecuteMaskAgg and
  /// ExecuteAggregation: undecidable groups are verified across `pool` in
  /// bound-ordered batches of at most this size, each group's members read
  /// by one MaskStore::LoadMaskBatch. 0 = auto (2 × pool threads; 1 — the
  /// exact serial schedule — when pool is null). Results never depend on
  /// it; a mask-agg top-k may verify a few extra groups with batches > 1,
  /// while a scalar top-k only batches groups its serial scan verifies.
  size_t agg_verify_batch = 0;

  /// Mask batch size for filter verification: the masks the bounds leave
  /// undecided are read in batches of this size, one coalesced
  /// MaskStore::LoadMaskBatch each, and evaluated across `pool`. 0 = auto
  /// (64, or 4 × pool threads if larger). Also caps how many single-mask
  /// units ExecuteTopK verifies per batch while its heap is filling.
  size_t filter_verify_batch = 0;

  /// I/O pool for the overlapped verification pipeline
  /// (exec/verify_pipeline.h): while batch k is being verified on `pool`,
  /// batch k+1's loads are already in flight on this pool (double
  /// buffering). Used by the filter, mask-agg and HAVING-only scalar
  /// aggregation; ExecuteTopK and a scalar top-k decide each mask or group
  /// against the heap the previous one left, so they ignore it. Null =
  /// every load runs inside the verify stage, one batch at a time. May
  /// alias `pool`; ParallelFor's caller participation keeps nested use
  /// deadlock-free. Results stay byte-identical: prefetching only makes
  /// pruning decisions on a slightly staler top-k heap, which is strictly
  /// conservative.
  ThreadPool* io_pool = nullptr;

  /// Capacity-bounded individual-mask CHI cache (docs/CACHING.md). When
  /// set, the filter stages of all four executors fall back to it for
  /// bounds when the IndexManager has no CHI, and verification retains a
  /// loaded mask's CHI here when incremental indexing (build_missing) is
  /// off — bounded incremental indexing.
  /// Bounds stay sound regardless of evictions, so query results are
  /// byte-identical with or without the cache; only pruning stats and I/O
  /// counts improve. Null = no bounded CHI cache. Typically owned by the
  /// Session (SessionOptions::cache).
  ChiCache* chi_cache = nullptr;

  /// Per-request deadline / cancellation state, polled at batch boundaries
  /// (see QueryControl). Null = the request can neither expire nor be
  /// cancelled. Owned by the caller (the service layer's request state);
  /// must outlive the executor call.
  const QueryControl* control = nullptr;
};

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_OPTIONS_H_
