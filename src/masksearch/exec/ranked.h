// The ranked-query driver (§3.2, §3.5) behind ExecuteTopK,
// ExecuteAggregation and ExecuteMaskAgg. Internal; not part of the public API.
//
// An executor reduces its query to items — masks or groups — each with a
// key (ties break toward the smaller key), bounds on its value, a load unit
// and an exact-value function. Top-k visits items in bound order against
// the running top-k set: an item is pruned when it certainly fails HAVING
// or cannot outrank the k-th result (Eq. 15), accepted when its bounds are
// tight, verified otherwise. HAVING-only classifies each item from its
// bounds (§3.2.1's three cases) and returns matches in key order, with
// value NaN for one accepted on bounds that are not tight.
//
// Verification runs through RunVerifyPipeline. HAVING-only decisions are
// independent, so it verifies full batches and may prefetch on io_pool.
// Top-k batches items only while the heap has a free slot for every pending
// unit, then one unit per batch, without io_pool: exactly the serial scan's
// decisions and ExecStats. RankedStages::speculative (MASK_AGG) instead
// forms full batches against the heap as of formation and prefetches; that
// only verifies a few extra items, never changes the results.

#ifndef MASKSEARCH_EXEC_RANKED_H_
#define MASKSEARCH_EXEC_RANKED_H_

#include <functional>
#include <optional>
#include <vector>

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {
namespace internal {

struct RankedStages {
  std::optional<size_t> k;  ///< unset: HAVING-only
  bool descending = true;
  std::optional<CompareOp> having_op;
  double having_threshold = 0.0;
  size_t batch = 1;          ///< most units per verification batch
  bool speculative = false;  ///< top-k: full batches + io_pool (see above)
  const char* span = "verify";
  /// Masks item `i` loads for verification; never empty.
  std::function<std::vector<MaskId>(size_t i)> unit;
  /// Exact value of item `i`; `masks` align with unit(i). Runs concurrently
  /// for the units of a batch (see VerifyStages::verify).
  std::function<Result<double>(size_t i, std::vector<Mask>& masks,
                               ThreadPool* pool, ExecStats* stats)>
      exact;
};

struct Ranked {
  int64_t key = -1;
  double value = 0.0;
};

/// \brief Ranks the items whose ascending `keys` and value `bounds` align.
/// Returns the top-k best first, or the HAVING-only matches in key order.
/// Adds pruned / accepted_by_bounds / candidates (counted in items) and the
/// pipeline's load counters to `stats`.
Result<std::vector<Ranked>> RunRanked(const MaskStore& store,
                                      IndexManager* index,
                                      const EngineOptions& opts,
                                      const RankedStages& stages,
                                      const std::vector<int64_t>& keys,
                                      const std::vector<Interval>& bounds,
                                      ExecStats* stats);

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_RANKED_H_
