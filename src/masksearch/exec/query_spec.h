// Query specifications consumed by the executors, mirroring the SQL surface
// of §2.1: mask selection (WHERE on catalog columns), CP terms, filter
// predicates, ORDER BY ... LIMIT K, GROUP BY with scalar or mask
// aggregation. The SQL front end (sql/) binds parsed statements to these
// structs; programmatic users can build them directly.

#ifndef MASKSEARCH_EXEC_QUERY_SPEC_H_
#define MASKSEARCH_EXEC_QUERY_SPEC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "masksearch/query/expression.h"
#include "masksearch/query/predicate.h"
#include "masksearch/storage/mask.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

/// \brief Catalog-level selection of the masks a query targets (metadata
/// filters never touch the data file).
struct Selection {
  /// Restrict to these model ids (empty = all). Table 1 queries use
  /// model_id = 1; Q4/Q5 use two models.
  std::vector<ModelId> model_ids;
  /// Restrict to these mask types (empty = all).
  std::vector<MaskType> mask_types;
  /// Restrict to masks of images the model predicted as one of these
  /// classes (empty = all). The §4.5 exploration pattern — "retrieve images
  /// predicted as those classes" — selects masks this way.
  std::vector<int32_t> predicted_labels;
  /// Explicit mask-id subset (empty = all). Multi-query workloads (§4.5)
  /// target per-query subsets of the dataset through this field.
  std::vector<MaskId> mask_ids;

  bool Matches(const MaskMeta& meta) const;
};

/// \brief Materializes the targeted mask ids, in ascending id order.
std::vector<MaskId> ResolveSelection(const MaskStore& store,
                                     const Selection& sel);

/// \brief Bytes of every blob `sel` targets, from the catalog alone: an
/// upper bound on what verification could read (admission cost). Mask-id
/// selections sum their in-range ids and the unconstrained selection is the
/// store's precomputed TotalDataBytes(); a metadata-constrained selection
/// is an O(catalog) walk, handed to `memo` when one is given (MetadataCache
/// memoizes it) and run directly otherwise.
using SelectionWalkMemo =
    std::function<uint64_t(const std::function<uint64_t()>& walk)>;
uint64_t SelectionBytes(const MaskStore& store, const Selection& sel,
                        const SelectionWalkMemo& memo = nullptr);

/// \brief Per-query execution statistics (Table 2, §4.4).
struct ExecStats {
  int64_t masks_targeted = 0;
  /// Filter-stage outcomes (§3.2.1 Step 2).
  int64_t pruned = 0;              ///< Case 1: certainly fails / can't make top-k
  int64_t accepted_by_bounds = 0;  ///< Case 2: certainly satisfies, not loaded
  int64_t candidates = 0;          ///< Case 3: sent to verification
  /// Verification-stage work.
  int64_t masks_loaded = 0;
  int64_t bytes_read = 0;
  /// CHIs built during this query (incremental indexing, §3.6).
  int64_t chis_built = 0;
  /// Overlapped-pipeline io_pool load tasks skipped because every mask they
  /// would fetch was already resident in the buffer pool — the cache-aware
  /// prefetch of docs/CACHING.md. One count per avoided load task, which is
  /// the pipeline's load unit: a whole verification batch in the filter,
  /// one group's members in mask-agg, a group's non-tight members in
  /// HAVING-only scalar aggregation (ExecuteTopK and a scalar top-k never
  /// prefetch). Skipped loads are served from memory
  /// at verify time without touching the io_pool or the disk.
  int64_t prefetch_skipped = 0;
  double seconds = 0.0;

  /// Fraction of targeted masks loaded from disk (§4.4). Q4-style queries
  /// can load a mask more than once only across groups, never within.
  double FML() const {
    return masks_targeted > 0
               ? static_cast<double>(masks_loaded) / masks_targeted
               : 0.0;
  }

  ExecStats& operator+=(const ExecStats& o);
  std::string ToString() const;
};

/// \brief Mask selection with a filter predicate (Q1, Q2).
struct FilterQuery {
  Selection selection;
  std::vector<CpTerm> terms;
  Predicate predicate;
};

struct FilterResult {
  std::vector<MaskId> mask_ids;  ///< sorted ascending
  ExecStats stats;
};

/// \brief Top-k masks ranked by a CP expression (Q3; Example 1's ratio).
struct TopKQuery {
  Selection selection;
  std::vector<CpTerm> terms;
  CpExpr order_expr;
  size_t k = 25;
  bool descending = true;
};

struct ScoredMask {
  MaskId mask_id = -1;
  double value = 0.0;
};

struct TopKResult {
  /// Sorted by (value, tie: mask_id ascending); best first.
  std::vector<ScoredMask> items;
  ExecStats stats;
};

/// \brief Scalar aggregation functions over CP values (§3.4).
enum class ScalarAggOp : uint8_t { kSum, kAvg, kMin, kMax };
const char* ScalarAggOpToString(ScalarAggOp op);

/// \brief GROUP BY key (§2.1: image_id | model_id | mask_type).
enum class GroupKey : uint8_t { kImageId, kModelId, kMaskType };

/// \brief SCALAR_AGG(CP(...)) GROUP BY ... with HAVING or ORDER BY/LIMIT
/// (Q4).
struct AggregationQuery {
  Selection selection;
  CpTerm term;
  ScalarAggOp op = ScalarAggOp::kAvg;
  GroupKey group_key = GroupKey::kImageId;
  /// Top-k over group aggregates (set k) and/or a HAVING comparison.
  std::optional<size_t> k;
  bool descending = true;
  std::optional<CompareOp> having_op;
  double having_threshold = 0.0;
};

struct ScoredGroup {
  int64_t group = -1;  ///< image_id / model_id / mask_type value
  double value = 0.0;
};

struct AggResult {
  std::vector<ScoredGroup> groups;
  ExecStats stats;
};

/// \brief MASK_AGG functions (§2.1): pixel-wise combination of the masks of
/// a group into a derived mask.
enum class MaskAggOp : uint8_t {
  /// INTERSECT(m_1 > t, ..., m_n > t): 1 where every mask exceeds t.
  kIntersectThreshold,
  /// UNION(m_1 > t, ..., m_n > t): 1 where any mask exceeds t.
  kUnionThreshold,
  /// Pixel-wise mean of the masks.
  kAverage,
};
const char* MaskAggOpToString(MaskAggOp op);

/// \brief The pixel value written for "1" in thresholded derived masks
/// (masks live in [0, 1), so true is encoded just below 1).
float DerivedMaskOne();

/// \brief CP(MASK_AGG(mask), roi, (lv, uv)) GROUP BY ... (Q5).
struct MaskAggQuery {
  Selection selection;
  MaskAggOp op = MaskAggOp::kIntersectThreshold;
  double agg_threshold = 0.8;  ///< t in INTERSECT(m > t, ...)
  CpTerm term;                 ///< CP over the derived mask
  GroupKey group_key = GroupKey::kImageId;
  std::optional<size_t> k;
  bool descending = true;
  std::optional<CompareOp> having_op;
  double having_threshold = 0.0;
};

/// \brief Extracts the group key value from a mask's metadata.
int64_t GroupKeyValue(GroupKey key, const MaskMeta& meta);

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_QUERY_SPEC_H_
