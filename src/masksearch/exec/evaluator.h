// Internal per-mask helpers shared by the executors: CP bounds from a CHI,
// exact CP values from a loaded mask, the CHI source for bounds and CHI
// retention after a verification load (loads themselves go through
// exec/verify_pipeline.h). Not part of the public API.

#ifndef MASKSEARCH_EXEC_EVALUATOR_H_
#define MASKSEARCH_EXEC_EVALUATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "masksearch/cache/chi_cache.h"
#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/bounds.h"
#include "masksearch/index/chi.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/index/index_manager.h"
#include "masksearch/query/cp.h"

namespace masksearch {
namespace internal {

/// \brief Interval bounds of every CP term of a query for one mask, computed
/// from its CHI without touching the data file.
inline std::vector<Interval> TermBoundsFromChi(const Chi& chi,
                                               const MaskMeta& meta,
                                               const std::vector<CpTerm>& terms) {
  std::vector<Interval> out;
  out.reserve(terms.size());
  for (const CpTerm& t : terms) {
    out.push_back(
        Interval::FromBounds(ComputeCpBounds(chi, ResolveRoi(t, meta), t.range)));
  }
  return out;
}

/// \brief Exact CP term values from a loaded mask (verification stage).
inline std::vector<double> TermExactFromMask(const Mask& mask,
                                             const MaskMeta& meta,
                                             const std::vector<CpTerm>& terms) {
  std::vector<double> out;
  out.reserve(terms.size());
  for (const CpTerm& t : terms) {
    out.push_back(static_cast<double>(
        CountPixels(mask, ResolveRoi(t, meta), t.range)));
  }
  return out;
}

/// \brief CHI used for filter-stage bounds: the IndexManager's when it has
/// one, else the bounded EngineOptions::chi_cache's. IndexManager CHIs are
/// returned as non-owning aliases (they are resident for the manager's
/// lifetime); cache CHIs share ownership, so a concurrent eviction cannot
/// dangle the caller. Bounds from either source are equally sound — the
/// cache only restores pruning power the unbounded regimes would have had.
inline std::shared_ptr<const Chi> ChiForBounds(const IndexManager* index,
                                               ChiCache* chi_cache,
                                               MaskId id) {
  if (index != nullptr) {
    if (const Chi* chi = index->Get(id)) {
      return std::shared_ptr<const Chi>(std::shared_ptr<const void>(), chi);
    }
  }
  if (chi_cache != nullptr) return chi_cache->Get(id);
  return nullptr;
}

/// \brief Retains the CHI of a verification-loaded mask per the engine
/// configuration: into the IndexManager under incremental indexing (§3.6,
/// unbounded — the paper's MS-II), else into the bounded chi_cache when one
/// is configured. `index` must already be gated on opts.use_index by the
/// caller. Returns the number of CHIs built (0 or 1) for stats.
inline int64_t RetainChiAfterLoad(IndexManager* index,
                                  const EngineOptions& opts, MaskId id,
                                  const Mask& mask) {
  if (opts.build_missing && index != nullptr && !index->Has(id)) {
    index->BuildAndPut(id, mask);
    return 1;
  }
  if (opts.use_index && opts.chi_cache != nullptr &&
      (index == nullptr || !index->IsResident(id)) &&
      !opts.chi_cache->Contains(id)) {
    opts.chi_cache->Put(id, BuildChi(mask, opts.chi_cache->config()));
    return 1;
  }
  return 0;
}

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_EVALUATOR_H_
