// Scalar aggregation over CP values with GROUP BY (§3.4, Q4).
//
// Group-level bounds are intervals combined from member bounds (SUM/AVG are
// monotone in each CP, MIN/MAX are lattice operations), so whole groups are
// pruned or accepted without loading any member mask. Only members of
// surviving groups whose bounds are not tight are loaded — which is why Q4
// loads fewer masks than Q1–Q3 in Table 2 despite targeting twice as many.
// Groups run on exec/ranked.h; a group's load unit is those members, in
// batches of at most EngineOptions::agg_verify_batch.

#ifndef MASKSEARCH_EXEC_AGG_EXECUTOR_H_
#define MASKSEARCH_EXEC_AGG_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes SCALAR_AGG(CP(...)) GROUP BY ... [HAVING | ORDER BY
/// LIMIT].
///
/// Stats units: masks_targeted / masks_loaded count masks; pruned /
/// accepted_by_bounds / candidates count groups.
///
/// HAVING-only queries may return groups accepted purely from bounds; such
/// groups carry value = NaN unless their bounds were tight (the paper's
/// Case-2 masks are returned without being loaded, §3.2.1).
Result<AggResult> ExecuteAggregation(const MaskStore& store,
                                     IndexManager* index,
                                     const AggregationQuery& query,
                                     const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_AGG_EXECUTOR_H_
