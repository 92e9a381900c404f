#include "masksearch/exec/query_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace masksearch {

bool Selection::Matches(const MaskMeta& meta) const {
  if (!model_ids.empty() &&
      std::find(model_ids.begin(), model_ids.end(), meta.model_id) ==
          model_ids.end()) {
    return false;
  }
  if (!mask_types.empty() &&
      std::find(mask_types.begin(), mask_types.end(), meta.mask_type) ==
          mask_types.end()) {
    return false;
  }
  if (!predicted_labels.empty() &&
      std::find(predicted_labels.begin(), predicted_labels.end(),
                meta.predicted_label) == predicted_labels.end()) {
    return false;
  }
  return true;
}

std::vector<MaskId> ResolveSelection(const MaskStore& store,
                                     const Selection& sel) {
  std::vector<MaskId> ids;
  if (!sel.mask_ids.empty()) {
    ids.reserve(sel.mask_ids.size());
    for (MaskId id : sel.mask_ids) {
      if (id < 0 || id >= store.num_masks()) continue;
      if (sel.Matches(store.meta(id))) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }
  ids.reserve(static_cast<size_t>(store.num_masks()));
  for (MaskId id = 0; id < store.num_masks(); ++id) {
    if (sel.Matches(store.meta(id))) ids.push_back(id);
  }
  return ids;
}

uint64_t SelectionBytes(const MaskStore& store, const Selection& sel,
                        const SelectionWalkMemo& memo) {
  uint64_t bytes = 0;
  if (!sel.mask_ids.empty()) {
    for (MaskId id : sel.mask_ids) {
      if (id >= 0 && id < store.num_masks()) bytes += store.BlobSize(id);
    }
    return bytes;
  }
  if (sel.model_ids.empty() && sel.mask_types.empty() &&
      sel.predicted_labels.empty()) {
    return store.TotalDataBytes();
  }
  auto walk = [&] {
    for (MaskId id = 0; id < store.num_masks(); ++id) {
      if (sel.Matches(store.meta(id))) bytes += store.BlobSize(id);
    }
    return bytes;
  };
  return memo ? memo(walk) : walk();
}

ExecStats& ExecStats::operator+=(const ExecStats& o) {
  masks_targeted += o.masks_targeted;
  pruned += o.pruned;
  accepted_by_bounds += o.accepted_by_bounds;
  candidates += o.candidates;
  masks_loaded += o.masks_loaded;
  bytes_read += o.bytes_read;
  chis_built += o.chis_built;
  prefetch_skipped += o.prefetch_skipped;
  seconds += o.seconds;
  return *this;
}

std::string ExecStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "targeted=%lld pruned=%lld accepted=%lld candidates=%lld "
                "loaded=%lld bytes=%lld chis_built=%lld prefetch_skips=%lld "
                "fml=%.4f t=%.3fs",
                static_cast<long long>(masks_targeted),
                static_cast<long long>(pruned),
                static_cast<long long>(accepted_by_bounds),
                static_cast<long long>(candidates),
                static_cast<long long>(masks_loaded),
                static_cast<long long>(bytes_read),
                static_cast<long long>(chis_built),
                static_cast<long long>(prefetch_skipped), FML(), seconds);
  return buf;
}

const char* ScalarAggOpToString(ScalarAggOp op) {
  switch (op) {
    case ScalarAggOp::kSum:
      return "SUM";
    case ScalarAggOp::kAvg:
      return "AVG";
    case ScalarAggOp::kMin:
      return "MIN";
    case ScalarAggOp::kMax:
      return "MAX";
  }
  return "?";
}

const char* MaskAggOpToString(MaskAggOp op) {
  switch (op) {
    case MaskAggOp::kIntersectThreshold:
      return "INTERSECT";
    case MaskAggOp::kUnionThreshold:
      return "UNION";
    case MaskAggOp::kAverage:
      return "AVERAGE";
  }
  return "?";
}

float DerivedMaskOne() { return std::nextafter(1.0f, 0.0f); }

int64_t GroupKeyValue(GroupKey key, const MaskMeta& meta) {
  switch (key) {
    case GroupKey::kImageId:
      return meta.image_id;
    case GroupKey::kModelId:
      return meta.model_id;
    case GroupKey::kMaskType:
      return static_cast<int64_t>(meta.mask_type);
  }
  return -1;
}

}  // namespace masksearch
