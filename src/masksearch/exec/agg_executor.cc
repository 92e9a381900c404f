#include "masksearch/exec/agg_executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/ranked.h"
#include "masksearch/exec/verify_pipeline.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Combines member CP intervals into the aggregate's interval.
Interval AggBounds(ScalarAggOp op, const std::vector<Interval>& members) {
  Interval acc;
  switch (op) {
    case ScalarAggOp::kSum:
    case ScalarAggOp::kAvg: {
      acc = Interval::Point(0.0);
      for (const Interval& m : members) acc = acc + m;
      if (op == ScalarAggOp::kAvg && !members.empty()) {
        const double n = static_cast<double>(members.size());
        acc = Interval{acc.lo / n, acc.hi / n};
      }
      return acc;
    }
    case ScalarAggOp::kMin: {
      acc = Interval{kInf, kInf};
      for (const Interval& m : members) {
        acc.lo = std::min(acc.lo, m.lo);
        acc.hi = std::min(acc.hi, m.hi);
      }
      return acc;
    }
    case ScalarAggOp::kMax: {
      acc = Interval{-kInf, -kInf};
      for (const Interval& m : members) {
        acc.lo = std::max(acc.lo, m.lo);
        acc.hi = std::max(acc.hi, m.hi);
      }
      return acc;
    }
  }
  return acc;
}

double AggExact(ScalarAggOp op, const std::vector<double>& values) {
  double acc;
  switch (op) {
    case ScalarAggOp::kSum:
    case ScalarAggOp::kAvg: {
      acc = 0.0;
      for (double v : values) acc += v;
      if (op == ScalarAggOp::kAvg && !values.empty()) {
        acc /= static_cast<double>(values.size());
      }
      return acc;
    }
    case ScalarAggOp::kMin:
      acc = kInf;
      for (double v : values) acc = std::min(acc, v);
      return acc;
    case ScalarAggOp::kMax:
      acc = -kInf;
      for (double v : values) acc = std::max(acc, v);
      return acc;
  }
  return 0.0;
}

}  // namespace

Result<AggResult> ExecuteAggregation(const MaskStore& store,
                                     IndexManager* index,
                                     const AggregationQuery& query,
                                     const EngineOptions& opts) {
  if (!query.k.has_value() && !query.having_op.has_value()) {
    return Status::InvalidArgument(
        "aggregation query needs a HAVING predicate and/or ORDER BY LIMIT k");
  }
  if (query.k.has_value() && *query.k == 0) {
    return Status::InvalidArgument("aggregation query requires k > 0");
  }

  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  // Group members by key; std::map keeps group order deterministic.
  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(query.group_key, store.meta(id))].push_back(id);
  }

  AggResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  // Per-group bound intervals from member CHIs — the IndexManager's or the
  // bounded chi_cache's (no disk access). Index g aligns `keys`, `members`,
  // `member_bounds` (empty if any member's CHI is missing) and `bounds`.
  std::vector<int64_t> keys;
  std::vector<const std::vector<MaskId>*> members;
  std::vector<std::vector<Interval>> member_bounds(groups.size());
  std::vector<Interval> bounds(groups.size(), Interval{-kInf, kInf});
  for (const auto& [key, group] : groups) {
    const size_t g = keys.size();
    keys.push_back(key);
    members.push_back(&group);
    if (!opts.use_index || (index == nullptr && opts.chi_cache == nullptr)) {
      continue;
    }
    std::vector<Interval>& mb = member_bounds[g];
    for (MaskId id : group) {
      const std::shared_ptr<const Chi> chi =
          internal::ChiForBounds(index, opts.chi_cache, id);
      if (chi == nullptr) {
        mb.clear();
        break;
      }
      mb.push_back(Interval::FromBounds(ComputeCpBounds(
          *chi, ResolveRoi(query.term, store.meta(id)), query.term.range)));
    }
    if (!mb.empty()) bounds[g] = AggBounds(query.op, mb);
  }

  // Verification: a group's unit is its members without tight bounds; the
  // tight ones contribute their bound as their exact value.
  auto Tight = [&](size_t g, size_t m) {
    return !member_bounds[g].empty() && member_bounds[g][m].Tight();
  };
  internal::RankedStages stages;
  stages.k = query.k;
  stages.descending = query.descending;
  stages.having_op = query.having_op;
  stages.having_threshold = query.having_threshold;
  stages.batch = internal::AggVerifyBatch(opts);
  stages.span = "agg_verify";
  stages.unit = [&](size_t g) {
    std::vector<MaskId> unit;
    unit.reserve(members[g]->size());
    for (size_t m = 0; m < members[g]->size(); ++m) {
      if (!Tight(g, m)) unit.push_back((*members[g])[m]);
    }
    return unit;
  };
  stages.exact = [&](size_t g, std::vector<Mask>& masks, ThreadPool*,
                     ExecStats*) -> Result<double> {
    std::vector<double> values(members[g]->size());
    size_t loaded = 0;
    for (size_t m = 0; m < values.size(); ++m) {
      const MaskId id = (*members[g])[m];
      values[m] = Tight(g, m) ? member_bounds[g][m].lo
                              : static_cast<double>(CountPixels(
                                    masks[loaded++],
                                    ResolveRoi(query.term, store.meta(id)),
                                    query.term.range));
    }
    return AggExact(query.op, values);
  };
  MS_ASSIGN_OR_RETURN(std::vector<internal::Ranked> ranked,
                      internal::RunRanked(store, index, opts, stages, keys,
                                          bounds, &result.stats));
  for (const internal::Ranked& r : ranked) {
    result.groups.push_back(ScoredGroup{r.key, r.value});
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
