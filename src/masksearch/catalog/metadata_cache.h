// MetadataCache: TTL'd catalog metadata for one dataset (docs/NETWORK.md).
//
// The serving layer costs every submitted request from its catalog
// selection; for metadata-constrained selections (model_id / mask_type /
// predicted_label) the exact answer is a walk over every mask's metadata —
// O(catalog) work that used to run on every Submit. Server workloads
// repeat a small set of selection shapes (prepared statements repeat them
// verbatim), so this cache memoizes the per-selection byte estimates under
// a canonical selection key. Entries expire on a TTL and on an explicit
// epoch bump (Invalidate — e.g. after a dataset is re-imported), keeping
// estimates honest against slowly-changing stores while admission stays
// O(1) on the hot path.

#ifndef MASKSEARCH_CATALOG_METADATA_CACHE_H_
#define MASKSEARCH_CATALOG_METADATA_CACHE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "masksearch/service/request.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

struct MetadataCacheOptions {
  /// Seconds a memoized estimate stays valid. <= 0: entries never expire
  /// by age (epoch invalidation only).
  double ttl_seconds = 60;
  /// Bound on distinct memoized selections. The cache serves repeated
  /// selection shapes; when an adversarial workload exceeds the bound the
  /// table is reset rather than grown (O(1) memory, like the stats
  /// reservoirs).
  size_t max_entries = 4096;
};

/// \brief Thread-safe. One instance per dataset; the catalog installs
/// `EstimateCostBytes` as the owning service's
/// QueryServiceOptions::cost_estimator.
class MetadataCache {
 public:
  MetadataCache(const MaskStore* store, const MetadataCacheOptions& options);

  /// \brief Drop-in cost estimator (QueryServiceOptions::cost_estimator):
  /// mask-id selections and the unconstrained selection are O(1) directly;
  /// metadata-constrained selections are memoized walks.
  uint64_t EstimateCostBytes(const ServiceRequest& request);

  /// \brief Estimated bytes targeted by `sel` (sum of blob sizes).
  uint64_t EstimateSelectionBytes(const Selection& sel);

  // Dataset-level metadata, O(1) passthroughs kept here so the wire layer
  // answers catalog introspection without touching the store's internals.
  int64_t num_masks() const { return store_->num_masks(); }
  uint64_t total_data_bytes() const { return store_->TotalDataBytes(); }

  /// \brief Epoch bump: every memoized estimate becomes stale immediately.
  void Invalidate();

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;  ///< includes TTL/epoch expirations
    uint64_t entries = 0;
  };
  CacheStats stats() const;

 private:
  struct Entry {
    uint64_t bytes = 0;
    uint64_t epoch = 0;
    std::chrono::steady_clock::time_point expires;
  };

  /// `walk`'s result for `sel`, memoized under its canonical key.
  uint64_t Memoized(const Selection& sel,
                    const std::function<uint64_t()>& walk);

  const MaskStore* store_;
  MetadataCacheOptions options_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace masksearch

#endif  // MASKSEARCH_CATALOG_METADATA_CACHE_H_
