#include "masksearch/exec/topk_executor.h"

#include <limits>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/ranked.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

Result<TopKResult> ExecuteTopK(const MaskStore& store, IndexManager* index,
                               const TopKQuery& query,
                               const EngineOptions& opts) {
  if (query.order_expr.Empty()) {
    return Status::InvalidArgument("top-k query has no ORDER BY expression");
  }
  if (query.k == 0) {
    return Status::InvalidArgument("top-k query requires k > 0");
  }
  if (query.order_expr.MaxTermIndex() >=
      static_cast<int32_t>(query.terms.size())) {
    return Status::InvalidArgument("ORDER BY expression references undefined CP term");
  }

  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  TopKResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  // Pass 1 (filter-side): compute the order-expression interval of every
  // indexed mask in parallel, falling back to the bounded chi_cache when
  // the IndexManager has no CHI. Masks without either get (-inf, +inf).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Interval> intervals(ids.size(), Interval{-kInf, kInf});
  if (opts.use_index && (index != nullptr || opts.chi_cache != nullptr)) {
    MS_TRACE_SPAN("topk_bounds");
    ParallelFor(opts.pool, ids.size(), [&](size_t i) {
      if (const std::shared_ptr<const Chi> chi =
              internal::ChiForBounds(index, opts.chi_cache, ids[i])) {
        const std::vector<Interval> tb =
            internal::TermBoundsFromChi(*chi, store.meta(ids[i]), query.terms);
        intervals[i] = query.order_expr.EvalBounds(tb);
      }
    });
  }

  // Pass 2: the running top-k scan (Eq. 15); a mask is one load unit.
  internal::RankedStages stages;
  stages.k = query.k;
  stages.descending = query.descending;
  stages.batch = internal::FilterVerifyBatch(opts);
  stages.span = "topk_verify";
  stages.unit = [&](size_t i) { return std::vector<MaskId>{ids[i]}; };
  stages.exact = [&](size_t i, std::vector<Mask>& masks, ThreadPool*,
                     ExecStats*) -> Result<double> {
    return query.order_expr.EvalExact(
        internal::TermExactFromMask(masks[0], store.meta(ids[i]), query.terms));
  };
  MS_ASSIGN_OR_RETURN(std::vector<internal::Ranked> ranked,
                      internal::RunRanked(store, index, opts, stages, ids,
                                          intervals, &result.stats));
  for (const internal::Ranked& r : ranked) {
    result.items.push_back(ScoredMask{r.key, r.value});
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
