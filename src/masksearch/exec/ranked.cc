#include "masksearch/exec/ranked.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "masksearch/exec/verify_pipeline.h"

namespace masksearch {
namespace internal {

namespace {

/// Total order over results: best first. DESC ranks larger values first;
/// ties always break toward the smaller key.
struct Better {
  bool descending;
  bool operator()(const Ranked& a, const Ranked& b) const {
    if (a.value != b.value) {
      return descending ? a.value > b.value : a.value < b.value;
    }
    return a.key < b.key;
  }
};

}  // namespace

Result<std::vector<Ranked>> RunRanked(const MaskStore& store,
                                      IndexManager* index,
                                      const EngineOptions& opts,
                                      const RankedStages& stages,
                                      const std::vector<int64_t>& keys,
                                      const std::vector<Interval>& bounds,
                                      ExecStats* stats) {
  const size_t n = keys.size();
  const bool topk = stages.k.has_value();
  const Better better{stages.descending};
  std::set<Ranked, Better> heap(better);
  std::vector<double> values(n, 0.0);
  std::vector<char> chosen(n, 0);  // HAVING-only: item i is in the result

  // Keeps a decided value: into the heap for top-k, else into the result.
  auto Fold = [&](size_t i, double value) {
    if (stages.having_op.has_value() &&
        !CompareExact(value, *stages.having_op, stages.having_threshold)) {
      return;
    }
    const Ranked cand{keys[i], value};
    if (!topk) {
      chosen[i] = 1;
      values[i] = value;
    } else if (heap.size() < *stages.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  };

  // Top-k visits items by the optimistic end of their bounds, which
  // tightens the running threshold faster than the paper's sequential order.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (topk && opts.sort_by_bound) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double oa = stages.descending ? bounds[a].hi : -bounds[a].lo;
      const double ob = stages.descending ? bounds[b].hi : -bounds[b].lo;
      if (oa != ob) return oa > ob;
      return keys[a] < keys[b];
    });
  }

  // Forms the next batch: walks the order, pruning against the current
  // heap and folding bound-decided items, until a batch of units is formed.
  size_t cursor = 0;
  VerifyStages verify;
  verify.span = stages.span;
  verify.form = [&] {
    std::vector<VerifyUnit> units;
    while (cursor < n) {
      // Unless speculative, each pending unit may still take a heap slot,
      // so stop where the next decision could depend on its value.
      if (!units.empty() &&
          (units.size() >= stages.batch ||
           (topk && !stages.speculative &&
            heap.size() + units.size() >= *stages.k))) {
        break;
      }
      const size_t i = order[cursor++];
      const Interval& b = bounds[i];
      const Tri having =
          stages.having_op.has_value()
              ? CompareBounds(b, *stages.having_op, stages.having_threshold)
              : Tri::kUnknown;
      const double optimistic = stages.descending ? b.hi : b.lo;
      if (having == Tri::kFalse ||
          (topk && heap.size() >= *stages.k &&
           !better(Ranked{keys[i], optimistic}, *heap.rbegin()))) {
        ++stats->pruned;
      } else if (b.Tight() && std::isfinite(b.lo)) {
        ++stats->accepted_by_bounds;
        Fold(i, b.lo);
      } else if (!topk && having == Tri::kTrue) {
        ++stats->accepted_by_bounds;
        chosen[i] = 1;
        values[i] = b.Tight() ? b.lo : std::numeric_limits<double>::quiet_NaN();
      } else {
        ++stats->candidates;
        units.push_back(VerifyUnit{i, stages.unit(i)});
      }
    }
    return units;
  };
  verify.verify = [&](const VerifyUnit& unit, std::vector<Mask>& masks,
                      ThreadPool* pool, ExecStats* unit_stats) -> Status {
    MS_ASSIGN_OR_RETURN(values[unit.tag],
                        stages.exact(unit.tag, masks, pool, unit_stats));
    return Status::OK();
  };
  verify.fold = [&](const VerifyUnit& unit) {
    Fold(unit.tag, values[unit.tag]);
  };

  EngineOptions run_opts = opts;
  if (topk && !stages.speculative) run_opts.io_pool = nullptr;
  MS_RETURN_NOT_OK(RunVerifyPipeline(store, index, run_opts, verify, stats));

  std::vector<Ranked> out(heap.begin(), heap.end());
  for (size_t i = 0; i < n; ++i) {
    if (chosen[i]) out.push_back(Ranked{keys[i], values[i]});
  }
  return out;
}

}  // namespace internal
}  // namespace masksearch
