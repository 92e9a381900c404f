#include "masksearch/exec/filter_executor.h"

#include <algorithm>
#include <memory>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

enum class Outcome : uint8_t { kPruned, kAccepted, kVerifiedPass, kVerifiedFail };

/// Classifies mask i from its CHI bounds alone (no I/O). Returns kPruned /
/// kAccepted when the predicate is decided, kVerifiedFail as the "must
/// verify" placeholder otherwise.
Outcome ClassifyFromBounds(const MaskStore& store, IndexManager* index,
                           const FilterQuery& query, const EngineOptions& opts,
                           MaskId id) {
  if (opts.use_index) {
    if (const std::shared_ptr<const Chi> chi =
            internal::ChiForBounds(index, opts.chi_cache, id)) {
      const std::vector<Interval> bounds =
          internal::TermBoundsFromChi(*chi, store.meta(id), query.terms);
      switch (query.predicate.EvalBounds(bounds)) {
        case Tri::kFalse:
          return Outcome::kPruned;  // Case 1
        case Tri::kTrue:
          return Outcome::kAccepted;  // Case 2
        case Tri::kUnknown:
          break;  // Case 3: verify below
      }
    }
  }
  return Outcome::kVerifiedFail;  // placeholder: needs verification
}

}  // namespace

Result<FilterResult> ExecuteFilter(const MaskStore& store, IndexManager* index,
                                   const FilterQuery& query,
                                   const EngineOptions& opts) {
  if (query.predicate.Empty()) {
    return Status::InvalidArgument("filter query has no predicate");
  }
  const int32_t max_term = query.predicate.MaxTermIndex();
  if (max_term >= static_cast<int32_t>(query.terms.size())) {
    return Status::InvalidArgument(
        "predicate references CP term " + std::to_string(max_term) +
        " but query defines only " + std::to_string(query.terms.size()));
  }

  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  std::vector<Outcome> outcomes(ids.size(), Outcome::kPruned);
  {
    MS_TRACE_SPAN("filter_classify");
    ParallelFor(opts.pool, ids.size(), [&](size_t i) {
      outcomes[i] = ClassifyFromBounds(store, index, query, opts, ids[i]);
    });
  }
  std::vector<size_t> verify_idx;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (outcomes[i] == Outcome::kVerifiedFail) verify_idx.push_back(i);
  }

  // Verification: the undecided masks in batches of `batch`, each batch one
  // load unit (one coalesced LoadMaskBatch), evaluated across the pool.
  const size_t batch =
      opts.filter_verify_batch > 0
          ? opts.filter_verify_batch
          : std::max<size_t>(
                64, opts.pool != nullptr ? opts.pool->num_threads() * 4 : 0);
  size_t next = 0;
  internal::VerifyStages stages;
  stages.span = "filter_verify";
  stages.form = [&] {
    std::vector<internal::VerifyUnit> units;
    if (next == verify_idx.size()) return units;
    const size_t take = std::min(batch, verify_idx.size() - next);
    units.emplace_back();
    units.back().tag = next;
    for (size_t k = next; k < next + take; ++k) {
      units.back().ids.push_back(ids[verify_idx[k]]);
    }
    next += take;
    return units;
  };
  stages.verify = [&](const internal::VerifyUnit& unit,
                      std::vector<Mask>& masks, ThreadPool* pool,
                      ExecStats*) {
    ParallelFor(pool, masks.size(), [&](size_t j) {
      const size_t i = verify_idx[unit.tag + j];
      const std::vector<double> exact =
          internal::TermExactFromMask(masks[j], store.meta(ids[i]), query.terms);
      outcomes[i] = query.predicate.EvalExact(exact) ? Outcome::kVerifiedPass
                                                     : Outcome::kVerifiedFail;
    });
    return Status::OK();
  };

  FilterResult result;
  MS_RETURN_NOT_OK(
      internal::RunVerifyPipeline(store, index, opts, stages, &result.stats));

  result.stats.masks_targeted = static_cast<int64_t>(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    switch (outcomes[i]) {
      case Outcome::kPruned:
        ++result.stats.pruned;
        break;
      case Outcome::kAccepted:
        ++result.stats.accepted_by_bounds;
        result.mask_ids.push_back(ids[i]);
        break;
      case Outcome::kVerifiedPass:
        ++result.stats.candidates;
        result.mask_ids.push_back(ids[i]);
        break;
      case Outcome::kVerifiedFail:
        ++result.stats.candidates;
        break;
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
