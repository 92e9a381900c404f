#include "masksearch/exec/mask_agg.h"

#include <algorithm>
#include <limits>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/ranked.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/kernels/agg_kernels.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

DerivedAggOp ToKernelOp(MaskAggOp op) {
  switch (op) {
    case MaskAggOp::kIntersectThreshold:
      return DerivedAggOp::kIntersect;
    case MaskAggOp::kUnionThreshold:
      return DerivedAggOp::kUnion;
    case MaskAggOp::kAverage:
      return DerivedAggOp::kAverage;
  }
  return DerivedAggOp::kIntersect;
}

Status CheckSameShape(const std::vector<Mask>& masks) {
  if (masks.empty()) {
    return Status::InvalidArgument("MASK_AGG of an empty group");
  }
  const int32_t w = masks[0].width();
  const int32_t h = masks[0].height();
  for (const Mask& m : masks) {
    if (m.width() != w || m.height() != h) {
      return Status::InvalidArgument("MASK_AGG inputs must share one shape");
    }
  }
  return Status::OK();
}

std::vector<const float*> MaskPointers(const std::vector<Mask>& masks) {
  std::vector<const float*> ptrs;
  ptrs.reserve(masks.size());
  for (const Mask& m : masks) ptrs.push_back(m.data().data());
  return ptrs;
}

/// Bounds on CP(derived, roi, range) from the members' individual CHIs —
/// the IndexManager's or the bounded chi_cache's (docs/CACHING.md) — for
/// thresholded INTERSECT / UNION (§3.4's monotone-aggregation extension).
/// Returns an unbounded interval when the aggregation is not count-monotone
/// or a member CHI is missing.
Interval BoundsFromMembers(const MaskAggQuery& query, const MaskStore& store,
                           IndexManager* index, const EngineOptions& opts,
                           const std::vector<MaskId>& members) {
  if (query.op == MaskAggOp::kAverage ||
      (index == nullptr && opts.chi_cache == nullptr)) {
    return Interval{-kInf, kInf};
  }
  const MaskMeta& first = store.meta(members.front());
  const ROI roi = ResolveRoi(query.term, first).ClampTo(first.width, first.height);
  const int64_t area = roi.Area();
  const ValueRange above{query.agg_threshold, 1.0};

  // Per-member bounds on the count of pixels above the aggregation
  // threshold inside the ROI.
  int64_t min_upper = std::numeric_limits<int64_t>::max();
  int64_t max_lower = 0;
  int64_t sum_lower = 0;
  int64_t sum_upper = 0;
  for (MaskId id : members) {
    const std::shared_ptr<const Chi> chi =
        internal::ChiForBounds(index, opts.chi_cache, id);
    if (chi == nullptr) return Interval{-kInf, kInf};
    const CpBounds b = ComputeCpBounds(*chi, roi, above);
    min_upper = std::min(min_upper, b.upper);
    max_lower = std::max(max_lower, b.lower);
    sum_lower += b.lower;
    sum_upper += b.upper;
  }
  const int64_t n = static_cast<int64_t>(members.size());

  // Bounds on the number of "1" pixels of the derived mask inside the ROI.
  Interval ones;
  if (query.op == MaskAggOp::kIntersectThreshold) {
    // All members above t: at most the scarcest member, at least the
    // inclusion–exclusion floor.
    ones.hi = static_cast<double>(min_upper);
    ones.lo = static_cast<double>(
        std::max<int64_t>(0, sum_lower - (n - 1) * area));
  } else {  // kUnionThreshold
    ones.hi = static_cast<double>(std::min(area, sum_upper));
    ones.lo = static_cast<double>(max_lower);
  }

  // Translate 1-counts into CP(derived, roi, range): derived pixels are
  // exactly {0, DerivedMaskOne()}.
  const bool counts_ones = query.term.range.Contains(DerivedMaskOne());
  const bool counts_zeros = query.term.range.Contains(0.0);
  Interval cp = Interval::Point(0.0);
  if (counts_ones) cp = cp + ones;
  if (counts_zeros) {
    cp = cp + (Interval::Point(static_cast<double>(area)) - ones);
  }
  return cp;
}

}  // namespace

Result<Mask> ComputeDerivedMask(MaskAggOp op, double threshold,
                                const std::vector<Mask>& masks) {
  MS_RETURN_NOT_OK(CheckSameShape(masks));
  Mask out(masks[0].width(), masks[0].height());
  const std::vector<const float*> ptrs = MaskPointers(masks);
  DerivedMaskKernel(ToKernelOp(op), static_cast<float>(threshold),
                    DerivedMaskOne(), ptrs.data(), ptrs.size(),
                    static_cast<size_t>(out.NumPixels()),
                    out.mutable_data().data());
  return out;
}

std::shared_ptr<const Chi> DerivedIndexCache::Get(int64_t group) const {
  if (pooled_ != nullptr) return pooled_->Get(group);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chis_.find(group);
  return it == chis_.end() ? nullptr : it->second;
}

void DerivedIndexCache::Put(int64_t group, Chi chi) {
  if (pooled_ != nullptr) {
    pooled_->Put(group, std::move(chi));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = chis_[group];
  if (slot == nullptr) slot = std::make_shared<const Chi>(std::move(chi));
}

size_t DerivedIndexCache::size() const {
  if (pooled_ != nullptr) return pooled_->size();
  std::lock_guard<std::mutex> lock(mu_);
  return chis_.size();
}

Status BuildDerivedIndexes(const MaskStore& store, const Selection& selection,
                           MaskAggOp op, double threshold, GroupKey group_key,
                           DerivedIndexCache* cache) {
  if (cache == nullptr) return Status::InvalidArgument("null derived cache");
  const std::vector<MaskId> ids = ResolveSelection(store, selection);
  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(group_key, store.meta(id))].push_back(id);
  }
  for (const auto& [key, members] : groups) {
    if (cache->Get(key) != nullptr) continue;
    MS_ASSIGN_OR_RETURN(std::vector<Mask> masks, store.LoadMaskBatch(members));
    MS_ASSIGN_OR_RETURN(Mask derived, ComputeDerivedMask(op, threshold, masks));
    cache->Put(key, BuildChi(derived, cache->config()));
  }
  return Status::OK();
}

Result<AggResult> ExecuteMaskAgg(const MaskStore& store, IndexManager* index,
                                 DerivedIndexCache* derived_cache,
                                 const MaskAggQuery& query,
                                 const EngineOptions& opts) {
  if (!query.k.has_value() && !query.having_op.has_value()) {
    return Status::InvalidArgument(
        "mask-agg query needs a HAVING predicate and/or ORDER BY LIMIT k");
  }
  if (query.k.has_value() && *query.k == 0) {
    return Status::InvalidArgument("mask-agg query requires k > 0");
  }
  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(query.group_key, store.meta(id))].push_back(id);
  }

  AggResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  // Index g aligns `keys`, `members` and `bounds`.
  std::vector<int64_t> keys;
  std::vector<const std::vector<MaskId>*> members;
  std::vector<Interval> bounds;
  for (const auto& [key, group] : groups) {
    keys.push_back(key);
    members.push_back(&group);
    Interval b{-kInf, kInf};
    if (opts.use_index) {
      // Prefer the derived mask's own CHI; fall back to member-CHI bounds.
      const std::shared_ptr<const Chi> dchi =
          derived_cache != nullptr ? derived_cache->Get(key) : nullptr;
      if (dchi != nullptr) {
        const ROI roi = ResolveRoi(query.term, store.meta(group.front()));
        b = Interval::FromBounds(ComputeCpBounds(*dchi, roi, query.term.range));
      } else {
        b = BoundsFromMembers(query, store, index, opts, group);
      }
    }
    bounds.push_back(b);
  }

  // Verification: a group's unit is its members. When the derived CHI is
  // wanted but missing, the derived mask is materialized (it is needed for
  // the CHI build anyway) and registered; otherwise the fused count kernel
  // answers without materializing it.
  internal::RankedStages stages;
  stages.k = query.k;
  stages.descending = query.descending;
  stages.having_op = query.having_op;
  stages.having_threshold = query.having_threshold;
  stages.batch = internal::AggVerifyBatch(opts);
  stages.speculative = true;
  stages.span = "agg_verify";
  stages.unit = [&](size_t g) { return *members[g]; };
  stages.exact = [&](size_t g, std::vector<Mask>& masks, ThreadPool*,
                     ExecStats* stats) -> Result<double> {
    MS_RETURN_NOT_OK(CheckSameShape(masks));
    const ROI roi = ResolveRoi(query.term, store.meta(members[g]->front()));
    if (derived_cache != nullptr && opts.use_index &&
        derived_cache->Get(keys[g]) == nullptr) {
      // §3.4 treats aggregated masks as "new masks" indexed ahead of time
      // or on first use; skip the build when the key is already cached.
      MS_ASSIGN_OR_RETURN(
          Mask derived,
          ComputeDerivedMask(query.op, query.agg_threshold, masks));
      derived_cache->Put(keys[g], BuildChi(derived, derived_cache->config()));
      stats->chis_built += 1;
      return static_cast<double>(CountPixels(derived, roi, query.term.range));
    }
    const std::vector<const float*> ptrs = MaskPointers(masks);
    return static_cast<double>(DerivedCpCount(
        ToKernelOp(query.op), static_cast<float>(query.agg_threshold),
        DerivedMaskOne(), ptrs.data(), ptrs.size(), masks[0].width(),
        masks[0].height(), roi, query.term.range));
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
