// Filter–verification execution of filter queries (§3.2).
//
// Filter stage: for each targeted mask, compute CP-term bounds from its CHI
// and evaluate the predicate under three-valued logic — prune certain
// failures, accept certain satisfactions, queue the rest. Verification
// stage: load the queued masks and apply the exact predicate. The result is
// exactly the set of masks satisfying the predicate (correctness guarantee
// of §3.2).
//
// Verification runs through the shared pipeline of exec/verify_pipeline.h:
// the undecided masks are read in batches (EngineOptions::filter_verify_batch),
// one offset-sorted, coalesced, shard-parallel MaskStore::LoadMaskBatch per
// batch, and each batch is evaluated across the pool; with
// EngineOptions::io_pool set, the next batch's reads are prefetched while
// the current one is evaluated.

#ifndef MASKSEARCH_EXEC_FILTER_EXECUTOR_H_
#define MASKSEARCH_EXEC_FILTER_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes a filter query. `index` may be null (or empty) — masks
/// without a CHI fall back to load-and-scan, which is also how MS-II handles
/// not-yet-indexed masks (§3.6).
Result<FilterResult> ExecuteFilter(const MaskStore& store, IndexManager* index,
                                   const FilterQuery& query,
                                   const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_FILTER_EXECUTOR_H_
