#include "masksearch/index/index_manager.h"

#include <mutex>

#include "masksearch/index/chi_builder.h"
#include "masksearch/index/chi_store.h"

namespace masksearch {

IndexManager::IndexManager(int64_t num_masks, ChiConfig config)
    : config_(config), slots_(static_cast<size_t>(num_masks)) {
  for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
}

IndexManager::~IndexManager() {
  for (auto& s : slots_) {
    delete s.load(std::memory_order_relaxed);
  }
}

void IndexManager::Put(MaskId id, Chi chi) {
  if (id < 0 || id >= num_masks()) return;
  const Chi* fresh = new Chi(std::move(chi));
  const Chi* expected = nullptr;
  if (slots_[id].compare_exchange_strong(expected, fresh,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
    num_built_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    delete fresh;  // another thread built it first
  }
}

void IndexManager::BuildAndPut(MaskId id, const Mask& mask) {
  if (Has(id)) return;
  Put(id, BuildChi(mask, config_));
}

Status IndexManager::BuildAll(const MaskStore& store, ThreadPool* pool) {
  const int64_t n = store.num_masks();
  if (n != num_masks()) {
    return Status::InvalidArgument("store has " + std::to_string(n) +
                                   " masks, index manager sized for " +
                                   std::to_string(num_masks()));
  }
  // The first failing load's own status (e.g. a Corruption naming the
  // mask) is returned; later masks are skipped once one has failed.
  std::atomic<bool> failed{false};
  std::mutex mu;
  Status first_error;
  ParallelFor(pool, static_cast<size_t>(n), [&](size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (Has(static_cast<MaskId>(i))) return;
    auto mask = store.LoadMask(static_cast<MaskId>(i));
    if (!mask.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = mask.status();
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    BuildAndPut(static_cast<MaskId>(i), *mask);
  });
  return first_error;
}

size_t IndexManager::MemoryBytes() const {
  size_t total = 0;
  for (const auto& s : slots_) {
    const Chi* c = s.load(std::memory_order_acquire);
    if (c != nullptr) total += c->MemoryBytes();
  }
  return total;
}

Status IndexManager::SaveToFile(const std::string& path) const {
  std::vector<const Chi*> chis(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    chis[i] = slots_[i].load(std::memory_order_acquire);
  }
  return SaveChiSet(path, config_, chis);
}

Status IndexManager::AttachFile(const std::string& path) {
  MS_ASSIGN_OR_RETURN(ChiSetIndex set_index, ScanChiSetIndex(path));
  if (!(set_index.config == config_)) {
    return Status::InvalidArgument("CHI file config " +
                                   set_index.config.ToString() +
                                   " != manager config " + config_.ToString());
  }
  if (set_index.total != static_cast<uint64_t>(num_masks())) {
    return Status::InvalidArgument(
        "CHI file covers " + std::to_string(set_index.total) +
        " masks, manager has " + std::to_string(num_masks()));
  }
  MS_ASSIGN_OR_RETURN(attached_file_, RandomAccessFile::Open(path));
  attached_entries_ = std::move(set_index.entries);
  return Status::OK();
}

const Chi* IndexManager::LoadAttached(MaskId id) const {
  const auto [offset, size] = attached_entries_[id];
  if (size == 0) return nullptr;  // not present in the file
  std::string bytes(size, '\0');
  if (!attached_file_->ReadAt(offset, size, bytes.data()).ok()) {
    return nullptr;
  }
  attached_bytes_loaded_.fetch_add(size, std::memory_order_relaxed);
  BufferReader r(bytes);
  auto chi = Chi::Deserialize(&r);
  if (!chi.ok() || !(chi->config() == config_)) return nullptr;

  const Chi* fresh = new Chi(std::move(*chi));
  const Chi* expected = nullptr;
  // Cast away const on the slot array: Get() is logically const, residency
  // is a cache.
  auto& slot = const_cast<std::atomic<const Chi*>&>(slots_[id]);
  if (slot.compare_exchange_strong(expected, fresh, std::memory_order_release,
                                   std::memory_order_acquire)) {
    const_cast<std::atomic<size_t>&>(num_built_).fetch_add(
        1, std::memory_order_acq_rel);
    return fresh;
  }
  delete fresh;  // raced with another loader or a Put
  return expected;
}

Status IndexManager::LoadFromFile(const std::string& path) {
  MS_ASSIGN_OR_RETURN(ChiSet set, LoadChiSet(path));
  if (!(set.config == config_)) {
    return Status::InvalidArgument("CHI file config " + set.config.ToString() +
                                   " != manager config " + config_.ToString());
  }
  if (set.chis.size() != slots_.size()) {
    return Status::InvalidArgument("CHI file covers " +
                                   std::to_string(set.chis.size()) +
                                   " masks, manager has " +
                                   std::to_string(slots_.size()));
  }
  for (size_t i = 0; i < set.chis.size(); ++i) {
    if (set.chis[i] == nullptr) continue;
    // Transfer ownership into the slot if empty.
    const Chi* fresh = set.chis[i].release();
    const Chi* expected = nullptr;
    if (slots_[i].compare_exchange_strong(expected, fresh,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
      num_built_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      delete fresh;
    }
  }
  return Status::OK();
}

}  // namespace masksearch
