#include "masksearch/exec/agg_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Better {
  bool descending;
  bool operator()(const ScoredGroup& a, const ScoredGroup& b) const {
    if (a.value != b.value) {
      return descending ? a.value > b.value : a.value < b.value;
    }
    return a.group < b.group;
  }
};

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
  // bounded chi_cache's (no disk access). Index i of `group_list` aligns
  // with `bounds` and `member_intervals`.
  struct GroupState {
    int64_t key;
    const std::vector<MaskId>* members;
    Interval agg_bounds;
    std::vector<Interval> member_intervals;  // empty if any CHI missing
  };
  std::vector<GroupState> states;
  states.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    GroupState gs;
    gs.key = key;
    gs.members = &members;
    gs.agg_bounds = Interval{-kInf, kInf};
    bool all_indexed =
        opts.use_index && (index != nullptr || opts.chi_cache != nullptr);
    if (all_indexed) {
      gs.member_intervals.reserve(members.size());
      for (MaskId id : members) {
        const std::shared_ptr<const Chi> chi =
            internal::ChiForBounds(index, opts.chi_cache, id);
        if (chi == nullptr) {
          all_indexed = false;
          gs.member_intervals.clear();
          break;
        }
        gs.member_intervals.push_back(Interval::FromBounds(ComputeCpBounds(
            *chi, ResolveRoi(query.term, store.meta(id)), query.term.range)));
      }
    }
    if (all_indexed) gs.agg_bounds = AggBounds(query.op, gs.member_intervals);
    states.push_back(std::move(gs));
  }

  // Exact aggregate of a group: use tight member bounds where available,
  // load the rest (verification stage).
  auto VerifyGroup = [&](const GroupState& gs) -> Result<double> {
    std::vector<double> values(gs.members->size());
    for (size_t m = 0; m < gs.members->size(); ++m) {
      const MaskId id = (*gs.members)[m];
      if (!gs.member_intervals.empty() && gs.member_intervals[m].Tight()) {
        values[m] = gs.member_intervals[m].lo;
        continue;
      }
      MS_ASSIGN_OR_RETURN(
          Mask mask, internal::LoadForVerification(
                         store, opts.use_index ? index : nullptr, opts, id,
                         &result.stats));
      values[m] = static_cast<double>(CountPixels(
          mask, ResolveRoi(query.term, store.meta(id)), query.term.range));
    }
    return AggExact(query.op, values);
  };

  if (!query.k.has_value()) {
    // HAVING-only: classic three-case filter at group granularity.
    for (const GroupState& gs : states) {
      // Group boundary: the deadline/cancel checkpoint of this executor.
      MS_RETURN_NOT_OK(CheckControl(opts.control));
      const Tri t =
          CompareBounds(gs.agg_bounds, *query.having_op, query.having_threshold);
      if (t == Tri::kFalse) {
        ++result.stats.pruned;
        continue;
      }
      if (t == Tri::kTrue) {
        ++result.stats.accepted_by_bounds;
        const double v = gs.agg_bounds.Tight() ? gs.agg_bounds.lo : kNaN;
        result.groups.push_back(ScoredGroup{gs.key, v});
        continue;
      }
      ++result.stats.candidates;
      MS_ASSIGN_OR_RETURN(double v, VerifyGroup(gs));
      if (CompareExact(v, *query.having_op, query.having_threshold)) {
        result.groups.push_back(ScoredGroup{gs.key, v});
      }
    }
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Top-k over group aggregates, with the running-threshold pruning of §3.5.
  const Better better{query.descending};
  std::set<ScoredGroup, Better> heap(better);

  std::vector<size_t> order(states.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (opts.sort_by_bound) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double oa =
          query.descending ? states[a].agg_bounds.hi : -states[a].agg_bounds.lo;
      const double ob =
          query.descending ? states[b].agg_bounds.hi : -states[b].agg_bounds.lo;
      if (oa != ob) return oa > ob;
      return states[a].key < states[b].key;
    });
  }

  for (size_t oi : order) {
    // Group boundary: the deadline/cancel checkpoint of this executor.
    MS_RETURN_NOT_OK(CheckControl(opts.control));
    const GroupState& gs = states[oi];
    // A group certainly failing the HAVING clause can never appear.
    if (query.having_op.has_value() &&
        CompareBounds(gs.agg_bounds, *query.having_op,
                      query.having_threshold) == Tri::kFalse) {
      ++result.stats.pruned;
      continue;
    }
    const double optimistic =
        query.descending ? gs.agg_bounds.hi : gs.agg_bounds.lo;
    if (heap.size() >= *query.k &&
        !better(ScoredGroup{gs.key, optimistic}, *heap.rbegin())) {
      ++result.stats.pruned;
      continue;
    }

    double value;
    if (gs.agg_bounds.Tight() && std::isfinite(gs.agg_bounds.lo)) {
      value = gs.agg_bounds.lo;
      ++result.stats.accepted_by_bounds;
    } else {
      ++result.stats.candidates;
      MS_ASSIGN_OR_RETURN(value, VerifyGroup(gs));
    }
    if (query.having_op.has_value() &&
        !CompareExact(value, *query.having_op, query.having_threshold)) {
      continue;
    }
    const ScoredGroup cand{gs.key, value};
    if (heap.size() < *query.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  }

  result.groups.assign(heap.begin(), heap.end());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
