// The verification half of filter–verification execution (§3.2), shared by
// all four executors (top-k and the aggregations through exec/ranked.h).
// Internal; not part of the public API.
//
// The caller forms verification batches from its filter-stage state; each
// batch is a list of load units, and a unit is the set of masks fetched by
// one MaskStore::LoadMaskBatch — a whole batch of undecided masks in the
// filter, one mask in top-k, one group's (non-tight) members in the
// aggregations. Unit granularity fixes the request pattern to the (modeled)
// disk; the pipeline never splits or merges units.
//
// With EngineOptions::io_pool set, a unit's load is submitted to io_pool as
// soon as its batch is formed and two batches are in flight: batch k is
// verified on EngineOptions::pool while batch k+1's reads run (double
// buffering). A unit whose masks are all resident in the buffer pool is not
// submitted — it would only queue a no-op behind real I/O — and is loaded
// from memory at verify time instead (cache-aware prefetch,
// docs/CACHING.md). The residency probe is advisory: an eviction in between
// costs a synchronous miss, nothing more. Without io_pool every unit loads
// at verify time and one batch is in flight: the serial schedule.
//
// Formation and folding run on the calling thread. With two batches in
// flight, a batch is formed before its predecessor is folded; callers that
// prune against folded state (mask-agg top-k) only prune less for it, so
// results never depend on the schedule.

#ifndef MASKSEARCH_EXEC_VERIFY_PIPELINE_H_
#define MASKSEARCH_EXEC_VERIFY_PIPELINE_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {
namespace internal {

/// \brief Masks loaded together, plus the caller's handle for them.
struct VerifyUnit {
  size_t tag = 0;
  std::vector<MaskId> ids;
};

struct VerifyStages {
  /// Forms the next batch; an empty batch ends formation. Calling thread.
  std::function<std::vector<VerifyUnit>()> form;
  /// Verifies one loaded unit; `masks` align with `unit.ids`. Runs
  /// concurrently for the units of a batch. `pool` is the parallelism left
  /// for work inside the unit: EngineOptions::pool when the batch is a
  /// single unit, else null. `stats` is the unit's own block (e.g. for
  /// derived CHIs built).
  std::function<Status(const VerifyUnit& unit, std::vector<Mask>& masks,
                       ThreadPool* pool, ExecStats* stats)>
      verify;
  /// Optional: folds each unit of a verified batch into the caller's state,
  /// in formation order, before the next batch is formed. Calling thread.
  std::function<void(const VerifyUnit&)> fold;
  /// Trace span around each batch's verification.
  const char* span = "verify";
};

/// \brief Verification batch sizes (EngineOptions::filter_verify_batch /
/// agg_verify_batch), with 0 resolved to their documented auto values.
inline size_t FilterVerifyBatch(const EngineOptions& opts) {
  const size_t threads = opts.pool != nullptr ? opts.pool->num_threads() : 0;
  return opts.filter_verify_batch > 0 ? opts.filter_verify_batch
                                      : std::max<size_t>(64, threads * 4);
}
inline size_t AggVerifyBatch(const EngineOptions& opts) {
  const size_t threads = opts.pool != nullptr ? opts.pool->num_threads() : 0;
  return opts.agg_verify_batch > 0 ? opts.agg_verify_batch
                                   : std::max<size_t>(1, threads * 2);
}

/// \brief Runs every batch `stages.form` yields through loading and
/// verification. Polls EngineOptions::control at each batch boundary, so a
/// request overruns its deadline by at most one batch. Retains each loaded
/// mask's CHI per RetainChiAfterLoad and adds masks_loaded, bytes_read,
/// chis_built and prefetch_skipped to `stats`. Returns the first failing
/// load's or verification's own status; in-flight loads are drained before
/// any return.
Status RunVerifyPipeline(const MaskStore& store, IndexManager* index,
                         const EngineOptions& opts, const VerifyStages& stages,
                         ExecStats* stats);

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_VERIFY_PIPELINE_H_
