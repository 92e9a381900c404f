#include "masksearch/catalog/metadata_cache.h"

#include <algorithm>
#include <vector>

namespace masksearch {

namespace {

/// Canonical key of a metadata-constrained selection: each dimension's
/// values sorted and deduplicated, so permuted-but-equal selections share
/// one entry.
template <typename T>
void AppendDim(std::string* key, char tag, const std::vector<T>& values) {
  if (values.empty()) return;
  std::vector<int64_t> v;
  v.reserve(values.size());
  for (const T& x : values) v.push_back(static_cast<int64_t>(x));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  key->push_back(tag);
  for (int64_t x : v) {
    *key += std::to_string(x);
    key->push_back(',');
  }
}

std::string SelectionKey(const Selection& sel) {
  std::string key;
  AppendDim(&key, 'm', sel.model_ids);
  AppendDim(&key, 't', sel.mask_types);
  AppendDim(&key, 'p', sel.predicted_labels);
  return key;
}

}  // namespace

MetadataCache::MetadataCache(const MaskStore* store,
                             const MetadataCacheOptions& options)
    : store_(store), options_(options) {
  options_.max_entries = std::max<size_t>(1, options_.max_entries);
}

uint64_t MetadataCache::EstimateSelectionBytes(const Selection& sel) {
  // Only the metadata walk reaches the memo: mask-id selections are
  // O(|ids|) and the unconstrained one is precomputed by the store.
  return SelectionBytes(*store_, sel,
                        [&](const std::function<uint64_t()>& walk) {
                          return Memoized(sel, walk);
                        });
}

uint64_t MetadataCache::Memoized(const Selection& sel,
                                 const std::function<uint64_t()>& walk) {
  const std::string key = SelectionKey(sel);
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.epoch == epoch_ &&
        (options_.ttl_seconds <= 0 || now < it->second.expires)) {
      ++hits_;
      return it->second.bytes;
    }
  }

  // Miss: pay the walk outside the lock (concurrent misses of one key may
  // each walk once; all write the same value).
  const uint64_t bytes = walk();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    if (entries_.size() >= options_.max_entries &&
        entries_.find(key) == entries_.end()) {
      entries_.clear();
    }
    Entry& e = entries_[key];
    e.bytes = bytes;
    e.epoch = epoch_;
    if (options_.ttl_seconds > 0) {
      e.expires =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options_.ttl_seconds));
    }
  }
  return bytes;
}

uint64_t MetadataCache::EstimateCostBytes(const ServiceRequest& request) {
  if (request.cost_bytes_hint > 0) return request.cost_bytes_hint;
  return EstimateSelectionBytes(request.query.selection());
}

void MetadataCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
}

MetadataCache::CacheStats MetadataCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = entries_.size();
  return s;
}

}  // namespace masksearch
