#include "masksearch/storage/mask.h"

#include <cmath>

namespace masksearch {

const char* MaskTypeToString(MaskType t) {
  switch (t) {
    case MaskType::kSaliencyMap:
      return "saliency_map";
    case MaskType::kHumanAttention:
      return "human_attention";
    case MaskType::kSegmentation:
      return "segmentation";
    case MaskType::kDepth:
      return "depth";
    case MaskType::kPoseHeatmap:
      return "pose_heatmap";
    case MaskType::kDerived:
      return "derived";
  }
  return "unknown";
}

namespace {

// True iff every value is in [0, 1) (NaN is not). Branch-free, with one
// accumulator per lane so the compiler vectorizes it at -O2 as well; an
// early-exit loop stays one scalar compare per pixel.
bool AllInDomain(const float* data, size_t n) {
  constexpr size_t kLanes = 8;
  unsigned lane_ok[kLanes] = {1, 1, 1, 1, 1, 1, 1, 1};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      lane_ok[k] &= (data[i + k] >= 0.0f) & (data[i + k] < 1.0f);
    }
  }
  unsigned ok = 1;
  for (unsigned l : lane_ok) ok &= l;
  for (; i < n; ++i) ok &= (data[i] >= 0.0f) & (data[i] < 1.0f);
  return ok != 0;
}

}  // namespace

Result<Mask> Mask::FromData(int32_t width, int32_t height,
                            std::vector<float> data) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("mask dimensions must be positive, got " +
                                   std::to_string(width) + "x" +
                                   std::to_string(height));
  }
  if (data.size() != static_cast<size_t>(width) * height) {
    return Status::InvalidArgument(
        "mask data size " + std::to_string(data.size()) +
        " does not match dimensions " + std::to_string(width) + "x" +
        std::to_string(height));
  }
  // Only a failing frame pays the rescan for its first bad pixel, which the
  // error names.
  if (!AllInDomain(data.data(), data.size())) {
    for (float v : data) {
      if (!(v >= 0.0f && v < 1.0f)) {
        return Status::InvalidArgument("mask pixel value " +
                                       std::to_string(v) + " outside [0, 1)");
      }
    }
  }
  return Mask(width, height, std::move(data));
}

void Mask::ClampToDomain() {
  // Largest float strictly below 1.0.
  const float kMax = std::nextafter(1.0f, 0.0f);
  for (float& v : data_) {
    if (std::isnan(v) || v < 0.0f) v = 0.0f;
    if (v >= 1.0f) v = kMax;
  }
}

std::string MaskMeta::ToString() const {
  return "mask_id=" + std::to_string(mask_id) +
         " image_id=" + std::to_string(image_id) +
         " model_id=" + std::to_string(model_id) + " type=" +
         MaskTypeToString(mask_type) + " " + std::to_string(width) + "x" +
         std::to_string(height) + " obj=" + object_box.ToString();
}

}  // namespace masksearch
