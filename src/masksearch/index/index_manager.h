// IndexManager: the in-memory CHI collection for a mask store.
//
// Holds at most one CHI per mask_id. Supports the two indexing regimes of
// the paper: bulk preprocessing (vanilla MaskSearch, §3.1) via BuildAll, and
// incremental indexing (MS-II, §3.6) via Put from the query execution path.
// Lookup is lock-free; registration is thread-safe.

#ifndef MASKSEARCH_INDEX_INDEX_MANAGER_H_
#define MASKSEARCH_INDEX_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "masksearch/common/io.h"
#include "masksearch/common/result.h"
#include "masksearch/common/thread_pool.h"
#include "masksearch/index/chi.h"
#include "masksearch/storage/mask.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

class IndexManager {
 public:
  IndexManager(int64_t num_masks, ChiConfig config);
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  int64_t num_masks() const { return static_cast<int64_t>(slots_.size()); }
  const ChiConfig& config() const { return config_; }

  /// \brief The CHI of mask `id`, or nullptr if not available. Lock-free on
  /// the resident fast path; with an attached file (§3.2 on-demand mode) a
  /// miss triggers a disk load and the CHI becomes resident.
  const Chi* Get(MaskId id) const {
    if (id < 0 || id >= num_masks()) return nullptr;
    const Chi* resident = slots_[id].load(std::memory_order_acquire);
    if (resident != nullptr || attached_file_ == nullptr) return resident;
    return LoadAttached(id);
  }
  bool Has(MaskId id) const { return Get(id) != nullptr; }

  /// \brief Resident check that never triggers a disk load.
  bool IsResident(MaskId id) const {
    return id >= 0 && id < num_masks() &&
           slots_[id].load(std::memory_order_acquire) != nullptr;
  }

  /// \brief Registers the CHI for mask `id`. If a CHI is already present the
  /// new one is discarded (first build wins; builds are deterministic so the
  /// race is benign).
  void Put(MaskId id, Chi chi);

  /// \brief Builds and registers the CHI of `mask` (convenience for the
  /// incremental path).
  void BuildAndPut(MaskId id, const Mask& mask);

  /// \brief Bulk preprocessing: builds the CHI of every mask in `store`
  /// (loading each mask once). The vanilla-MaskSearch start-up cost whose
  /// amortization Figure 11 studies. A failed load returns that load's own
  /// status.
  Status BuildAll(const MaskStore& store, ThreadPool* pool = nullptr);

  /// \brief Number of CHIs currently built.
  size_t num_built() const { return num_built_.load(std::memory_order_acquire); }

  /// \brief Total in-memory footprint of all built CHIs.
  size_t MemoryBytes() const;

  /// \brief Persists the (possibly partial) CHI set (§3.6 session end).
  Status SaveToFile(const std::string& path) const;

  /// \brief Loads a persisted CHI set into empty slots. Fails if the file's
  /// config or mask count disagrees with this manager.
  Status LoadFromFile(const std::string& path);

  /// \brief On-demand mode (§3.2: "in cases where CHI cannot be held in
  /// memory, MaskSearch loads the CHI of a mask from disk on demand"):
  /// attaches a persisted CHI set without reading its payloads; each mask's
  /// CHI is read on first access and stays resident afterwards. Computing
  /// bounds from an on-disk CHI is still far cheaper than loading the mask
  /// (the CHI is ~5% of the mask's bytes).
  Status AttachFile(const std::string& path);

  /// \brief Bytes read from the attached file so far.
  uint64_t attached_bytes_loaded() const {
    return attached_bytes_loaded_.load(std::memory_order_relaxed);
  }

 private:
  const Chi* LoadAttached(MaskId id) const;

  ChiConfig config_;
  std::vector<std::atomic<const Chi*>> slots_;
  std::atomic<size_t> num_built_{0};
  // On-demand state (mutable: Get() is logically const).
  std::unique_ptr<RandomAccessFile> attached_file_;
  std::vector<std::pair<uint64_t, uint64_t>> attached_entries_;
  mutable std::atomic<uint64_t> attached_bytes_loaded_{0};
};

}  // namespace masksearch

#endif  // MASKSEARCH_INDEX_INDEX_MANAGER_H_
