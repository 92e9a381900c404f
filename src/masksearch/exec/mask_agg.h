// Mask aggregation execution (§3.4, Q5): CP over MASK_AGG(mask) GROUP BY.
//
// Derived masks (e.g. the thresholded intersection of a group's masks) get
// their own CHIs, built incrementally the first time a group is verified and
// cached for future queries — the paper's "index for the aggregated masks is
// either built ahead of time or incrementally built". For monotone
// aggregations (thresholded INTERSECT / UNION) the executor additionally
// derives bounds from the *individual* masks' CHIs, the extension the paper
// proposes at the end of §3.4, so unindexed groups can still be pruned.

#ifndef MASKSEARCH_EXEC_MASK_AGG_H_
#define MASKSEARCH_EXEC_MASK_AGG_H_

#include <map>
#include <memory>
#include <mutex>

#include "masksearch/cache/chi_cache.h"
#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Computes the derived mask of a group. All inputs must share one
/// shape. Exposed for tests and for ahead-of-time derived-index builds.
Result<Mask> ComputeDerivedMask(MaskAggOp op, double threshold,
                                const std::vector<Mask>& masks);

/// \brief Cache of CHIs for derived masks, keyed by group value. One cache
/// corresponds to one (MaskAggOp, threshold, selection) template; the
/// Session keeps caches across queries to amortize builds.
///
/// Two backings: the default is an unbounded map (every derived CHI stays
/// for the cache's lifetime — the pre-cache-subsystem behavior). With a
/// BufferPool the entries are capacity-bounded and evicted under memory
/// pressure (docs/CACHING.md); Get returns shared ownership, so a CHI
/// remains valid for the caller even if it is evicted mid-use. First Put
/// wins in both modes (builds are deterministic, the race is benign).
class DerivedIndexCache {
 public:
  explicit DerivedIndexCache(ChiConfig config) : config_(config) {}
  DerivedIndexCache(ChiConfig config, std::shared_ptr<BufferPool> pool)
      : config_(config),
        pooled_(pool == nullptr
                    ? nullptr
                    : std::make_unique<ChiCache>(std::move(pool), config,
                                                 CacheSpace::kDerivedChi)) {}

  const ChiConfig& config() const { return config_; }
  std::shared_ptr<const Chi> Get(int64_t group) const;
  void Put(int64_t group, Chi chi);
  size_t size() const;
  /// \brief Pool-backed (capacity-bounded) mode?
  bool bounded() const { return pooled_ != nullptr; }

 private:
  ChiConfig config_;
  std::unique_ptr<ChiCache> pooled_;  ///< null = unbounded map backing
  mutable std::mutex mu_;
  std::map<int64_t, std::shared_ptr<const Chi>> chis_;
};

/// \brief Ahead-of-time derived-index construction (§3.4: "the index for
/// the aggregated masks is either built ahead of time or incrementally
/// built"). Materializes the derived mask of every group in `selection` and
/// registers its CHI in `cache`. Loads each member mask once (through the
/// store's accounting/throttle).
Status BuildDerivedIndexes(const MaskStore& store, const Selection& selection,
                           MaskAggOp op, double threshold, GroupKey group_key,
                           DerivedIndexCache* cache);

/// \brief Executes CP(MASK_AGG(mask), roi, (lv, uv)) GROUP BY ... [HAVING |
/// ORDER BY LIMIT].
///
/// `derived_cache` may be null (every undecidable group is then verified by
/// loading its members). `index` supplies individual-mask CHIs for the
/// monotone-aggregation bounds.
///
/// Groups run on exec/ranked.h. Verification is batched, parallel, and
/// (optionally) overlapped through the shared pipeline of
/// exec/verify_pipeline.h: undecidable groups are verified across opts.pool
/// in bound-ordered batches
/// (EngineOptions::agg_verify_batch), each group's members read by one
/// MaskStore::LoadMaskBatch. With EngineOptions::io_pool set the pipeline is
/// double-buffered: while batch k is being verified, the member loads of
/// batch k+1 are already in flight, so the modeled disk and the
/// verification kernels work concurrently. Results are byte-identical to the
/// serial schedule; batching and prefetch-ahead only relax heap-based
/// pruning conservatively (each decision uses the heap as of batch
/// formation), so a pipelined run may verify a few extra groups (candidates
/// up, pruned down by the same amount) — never fewer, and never different
/// values. When only the count is needed (derived CHI already cached or no
/// cache supplied), the fused derived-CP kernel answers without
/// materializing the derived mask.
Result<AggResult> ExecuteMaskAgg(const MaskStore& store, IndexManager* index,
                                 DerivedIndexCache* derived_cache,
                                 const MaskAggQuery& query,
                                 const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_MASK_AGG_H_
