// Top-k execution (§3.5): intertwined filter and verification maintaining
// the running top-k set R. A mask is pruned when its bound proves it cannot
// beat the current k-th result (Eq. 15); otherwise its exact value is
// obtained — from its bounds when they are tight, else by loading the mask.
// The scan runs on exec/ranked.h, one mask per item and load unit, in
// batches of at most EngineOptions::filter_verify_batch; io_pool is unused.
//
// Determinism: results are totally ordered by (value, tie-break mask_id
// ascending); pruning respects the same order, so the returned set equals
// the brute-force top-k exactly.

#ifndef MASKSEARCH_EXEC_TOPK_EXECUTOR_H_
#define MASKSEARCH_EXEC_TOPK_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes a top-k query over masks.
Result<TopKResult> ExecuteTopK(const MaskStore& store, IndexManager* index,
                               const TopKQuery& query,
                               const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_TOPK_EXECUTOR_H_
