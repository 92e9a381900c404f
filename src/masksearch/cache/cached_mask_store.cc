#include "masksearch/cache/cached_mask_store.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "masksearch/obs/metrics.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

uint64_t ChargeFor(const Mask& mask) {
  return mask.ByteSize() + kCacheEntryOverheadBytes;
}

/// Process-wide mirrors of the per-store hit/miss counters
/// (docs/OBSERVABILITY.md). Registry pointers are stable for the process
/// lifetime, so caching them in a static is safe across ResetForTest.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  CacheMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    hits = reg.GetCounter("ms_cache_mask_hits_total");
    misses = reg.GetCounter("ms_cache_mask_misses_total");
  }
};

CacheMetrics& Metrics() {
  static CacheMetrics m;
  return m;
}

void CountHit(std::atomic<uint64_t>& local) {
  local.fetch_add(1, std::memory_order_relaxed);
  Metrics().hits->Inc();
  obs::Trace::CurrentAddCount("cache_hits", 1);
}

void CountMiss(std::atomic<uint64_t>& local) {
  local.fetch_add(1, std::memory_order_relaxed);
  Metrics().misses->Inc();
  obs::Trace::CurrentAddCount("cache_misses", 1);
}

}  // namespace

CachedMaskStore::CachedMaskStore(std::unique_ptr<MaskStore> inner,
                                 std::shared_ptr<BufferPool> pool)
    // Empty catalog tables: every accessor forwards to the wrapped store,
    // so the decorator does not duplicate the per-mask metadata.
    : MaskStore(inner->dir(), inner->options(), inner->kind(), {}, {}),
      inner_(std::move(inner)),
      pool_(std::move(pool)),
      owner_(BufferPool::NewOwnerId()) {}

CachedMaskStore::~CachedMaskStore() { pool_->EraseOwner(owner_); }

std::unique_ptr<MaskStore> CachedMaskStore::Wrap(
    std::unique_ptr<MaskStore> inner, std::shared_ptr<BufferPool> pool) {
  return std::unique_ptr<MaskStore>(
      new CachedMaskStore(std::move(inner), std::move(pool)));
}

size_t CachedMaskStore::CountResident(const std::vector<MaskId>& ids) const {
  size_t resident = 0;
  for (MaskId id : ids) {
    // Contains is a pure probe: no hit/miss accounting, no promotion — a
    // prefetch decision must not distort the cache statistics or the LRU
    // order the real accesses will see.
    if (id >= 0 && id < num_masks() && pool_->Contains(KeyFor(id))) {
      ++resident;
    }
  }
  return resident;
}

Result<BufferPool::Pin> CachedMaskStore::PinMask(MaskId id) const {
  BufferPool::Pin pin = pool_->Lookup(KeyFor(id));
  if (pin) {
    CountHit(hits_);
    return pin;
  }
  CountMiss(misses_);
  MS_TRACE_SPAN("cache_miss_load");
  MS_ASSIGN_OR_RETURN(Mask mask, inner_->LoadMask(id));
  auto value = std::make_shared<const Mask>(std::move(mask));
  const uint64_t bytes = ChargeFor(*value);
  return pool_->Insert(KeyFor(id), std::move(value), bytes);
}

Result<Mask> CachedMaskStore::LoadMask(MaskId id) const {
  MS_RETURN_NOT_OK(CheckId(id));
  MS_ASSIGN_OR_RETURN(BufferPool::Pin pin, PinMask(id));
  return *static_cast<const Mask*>(pin.get());  // copy out while pinned
}

Result<std::vector<Mask>> CachedMaskStore::LoadMaskBatch(
    const std::vector<MaskId>& ids) const {
  std::vector<Mask> out(ids.size());
  if (ids.empty()) return out;
  for (MaskId id : ids) MS_RETURN_NOT_OK(CheckId(id));
  if (ids.size() == 1) {  // top-k verifies one mask per unit
    MS_ASSIGN_OR_RETURN(BufferPool::Pin pin, PinMask(ids[0]));
    out[0] = *static_cast<const Mask*>(pin.get());
    return out;
  }

  // One pool access per distinct id: a duplicate shares the pin of the
  // id's first occurrence, lead[i]. The executors pass increasing ids.
  std::vector<size_t> lead(ids.size());
  std::iota(lead.begin(), lead.end(), size_t{0});
  if (std::adjacent_find(ids.begin(), ids.end(),
                         std::greater_equal<MaskId>()) != ids.end()) {
    std::unordered_map<MaskId, size_t> first;
    for (size_t i = 0; i < ids.size(); ++i) {
      lead[i] = first.try_emplace(ids[i], i).first->second;
    }
  }

  // Pin hits up front so the miss-side inserts below can never evict a
  // member of this very batch before it is copied out.
  std::vector<BufferPool::Pin> pins(ids.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (lead[i] != i) continue;
    pins[i] = pool_->Lookup(KeyFor(ids[i]));
    if (pins[i]) {
      CountHit(hits_);
    } else {
      CountMiss(misses_);
      missing.push_back(i);
    }
  }

  if (!missing.empty()) {
    MS_TRACE_SPAN("cache_miss_load");
    // One coalesced, shard-parallel inner batch for all misses.
    std::vector<MaskId> missing_ids;
    missing_ids.reserve(missing.size());
    for (size_t i : missing) missing_ids.push_back(ids[i]);
    MS_ASSIGN_OR_RETURN(std::vector<Mask> loaded,
                        inner_->LoadMaskBatch(missing_ids));
    for (size_t j = 0; j < missing.size(); ++j) {
      auto value = std::make_shared<const Mask>(std::move(loaded[j]));
      const uint64_t bytes = ChargeFor(*value);
      pins[missing[j]] =
          pool_->Insert(KeyFor(missing_ids[j]), std::move(value), bytes);
    }
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    out[i] = *static_cast<const Mask*>(pins[lead[i]].get());
  }
  return out;  // pins released here, after every copy is made
}

Result<Mask> CachedMaskStore::LoadMaskRows(MaskId id, int32_t y0,
                                           int32_t y1) const {
  MS_RETURN_NOT_OK(CheckId(id));
  // Replicate the inner checks so error behavior matches the uncached path
  // exactly, then serve the row range from a resident full mask if there is
  // one. Partial reads are never inserted (a row slice is not the blob).
  if (kind_ != StorageKind::kRawFloat32) {
    return inner_->LoadMaskRows(id, y0, y1);
  }
  const MaskMeta& m = inner_->meta(id);
  if (y0 < 0 || y1 > m.height || y0 >= y1) {
    return inner_->LoadMaskRows(id, y0, y1);
  }
  BufferPool::Pin pin = pool_->Lookup(KeyFor(id));
  if (!pin) {
    CountMiss(misses_);
    return inner_->LoadMaskRows(id, y0, y1);
  }
  CountHit(hits_);
  const Mask& full = *static_cast<const Mask*>(pin.get());
  std::vector<float> values(static_cast<size_t>(m.width) * (y1 - y0));
  std::memcpy(values.data(), full.row(y0), values.size() * sizeof(float));
  return Mask::FromData(m.width, y1 - y0, std::move(values));
}

Status CachedMaskStore::ReadBlob(MaskId id, std::string* out) const {
  return inner_->ReadBlob(id, out);  // raw bytes: bypass by design
}

}  // namespace masksearch
