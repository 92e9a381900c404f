// Query-stream generation: each workload's distinct queries as SQL text
// (plus prepared-statement templates for EXECUTE traffic), bound through
// the real SQL front end so the oracle evaluates exactly what the server
// will execute.

#include <algorithm>
#include <cstdio>
#include <set>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr int32_t kClasses = 20;

enum class Kind { kFilter, kTopK, kAgg, kMaskAgg };

/// One query before rendering.
struct Spec {
  Kind kind = Kind::kFilter;
  bool object_roi = false;  ///< else the constant rect below
  ROI rect;
  double lv = 0.5;
  double uv = 1.0;
  double threshold = 0;   ///< filter: CP count threshold
  double agg_t = 0.5;     ///< MASK_AGG pixel threshold
  bool intersect = true;  ///< MASK_AGG: INTERSECT, else UNION
  int k = 25;
  bool desc = true;
  std::vector<int32_t> labels;  ///< predicted_label IN (...); empty = all
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RoiSql(const Spec& s) {
  if (s.object_roi) return "object";
  return "rect(" + std::to_string(s.rect.x0) + ", " +
         std::to_string(s.rect.y0) + ", " + std::to_string(s.rect.x1) +
         ", " + std::to_string(s.rect.y1) + ")";
}

std::string CpSql(const Spec& s, const std::string& mask) {
  return "CP(" + mask + ", " + RoiSql(s) + ", (" + Num(s.lv) + ", " +
         Num(s.uv) + "))";
}

std::string LabelsSql(const Spec& s) {
  std::string out = "predicted_label IN (";
  for (size_t i = 0; i < s.labels.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(s.labels[i]);
  }
  return out + ")";
}

std::string RenderSql(const Spec& s) {
  const std::string where = s.labels.empty() ? "" : " WHERE " + LabelsSql(s);
  const std::string order = s.desc ? " DESC" : " ASC";
  const std::string limit = " LIMIT " + std::to_string(s.k) + ";";
  switch (s.kind) {
    case Kind::kFilter:
      return "SELECT mask_id FROM masks WHERE " + CpSql(s, "mask") + " > " +
             Num(s.threshold) +
             (s.labels.empty() ? "" : " AND " + LabelsSql(s)) + ";";
    case Kind::kTopK:
      return "SELECT mask_id, " + CpSql(s, "mask") + " AS s FROM masks" +
             where + " ORDER BY s" + order + limit;
    case Kind::kAgg:
      return "SELECT image_id, MEAN(" + CpSql(s, "mask") +
             ") AS m FROM masks" + where + " GROUP BY image_id ORDER BY m" +
             order + limit;
    case Kind::kMaskAgg:
      return "SELECT image_id, " +
             CpSql(s, std::string(s.intersect ? "INTERSECT" : "UNION") +
                          "(mask > " + Num(s.agg_t) + ")") +
             " AS s FROM masks" + where + " GROUP BY image_id ORDER BY s" +
             order + limit;
  }
  return "";
}

/// Prepared-statement templates of the hot mix (rect ROI, 2 labels).
const char* kHotTemplates[] = {
    "SELECT mask_id FROM masks WHERE CP(mask, rect(?, ?, ?, ?), (?, ?)) > ? "
    "AND predicted_label IN (?, ?);",
    "SELECT mask_id, CP(mask, rect(?, ?, ?, ?), (?, ?)) AS s FROM masks "
    "WHERE predicted_label IN (?, ?) ORDER BY s DESC LIMIT 10;",
};

std::vector<double> HotParams(const Spec& s) {
  std::vector<double> p = {static_cast<double>(s.rect.x0),
                           static_cast<double>(s.rect.y0),
                           static_cast<double>(s.rect.x1),
                           static_cast<double>(s.rect.y1), s.lv, s.uv};
  if (s.kind == Kind::kFilter) p.push_back(s.threshold);
  p.push_back(s.labels[0]);
  p.push_back(s.labels[1]);
  return p;
}

/// Distinct random labels.
std::vector<int32_t> RandomLabels(Rng* rng, size_t n) {
  std::set<int32_t> picked;
  while (picked.size() < n) {
    picked.insert(static_cast<int32_t>(rng->UniformInt(0, kClasses - 1)));
  }
  return std::vector<int32_t>(picked.begin(), picked.end());
}

/// §4.5 exploration: each query revisits explored classes with
/// probability p_seen and otherwise opens a fresh one.
class ClassExplorer {
 public:
  explicit ClassExplorer(double p_seen) : p_seen_(p_seen) {}
  std::vector<int32_t> Next(Rng* rng, size_t n) {
    std::set<int32_t> out;
    while (out.size() < n) {
      std::vector<int32_t> unseen;
      for (int32_t c = 0; c < kClasses; ++c) {
        if (!seen_.count(c) && !out.count(c)) unseen.push_back(c);
      }
      const bool revisit = !seen_.empty() && (unseen.empty() ||
                                               rng->NextBool(p_seen_));
      if (revisit) {
        std::vector<int32_t> pool(seen_.begin(), seen_.end());
        out.insert(pool[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
      } else {
        out.insert(unseen[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(unseen.size()) - 1))]);
      }
    }
    seen_.insert(out.begin(), out.end());
    return std::vector<int32_t>(out.begin(), out.end());
  }

 private:
  double p_seen_;
  std::set<int32_t> seen_;
};

/// Kinds in exact proportion (per block of the counts' sum, shuffled).
std::vector<Kind> KindSequence(Rng* rng, size_t n,
                               const std::vector<std::pair<Kind, int>>& mix) {
  std::vector<Kind> out;
  while (out.size() < n) {
    std::vector<Kind> block;
    for (const auto& [kind, count] : mix) block.insert(block.end(), count, kind);
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1],
                block[static_cast<size_t>(
                    rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

/// CP values of `s`'s (first) term over a sample of (at most 64 of) the
/// masks it targets.
std::vector<double> TargetCps(const Spec& s,
                              const std::vector<MaskRecord>& records) {
  std::vector<const MaskRecord*> targeted;
  for (const MaskRecord& r : records) {
    if (s.labels.empty() ||
        std::find(s.labels.begin(), s.labels.end(),
                  r.meta.predicted_label) != s.labels.end()) {
      targeted.push_back(&r);
    }
  }
  const size_t stride = std::max<size_t>(1, targeted.size() / 64);
  std::vector<double> cps;
  for (size_t i = 0; i < targeted.size(); i += stride) {
    const MaskRecord& r = *targeted[i];
    const ROI roi = s.object_roi ? r.meta.object_box : s.rect;
    cps.push_back(static_cast<double>(
        CountPixels(r.mask, roi, ValueRange(s.lv, s.uv))));
  }
  return cps;
}

/// A rect whose corners sit on the CHI cell grid (`cell` px), at least two
/// cells wide and tall.
ROI AlignedRect(Rng* rng, int32_t side, int32_t cell) {
  const int32_t cells = side / cell;
  const int32_t x0 = static_cast<int32_t>(rng->UniformInt(0, cells - 2));
  const int32_t y0 = static_cast<int32_t>(rng->UniformInt(0, cells - 2));
  const int32_t x1 = static_cast<int32_t>(rng->UniformInt(x0 + 2, cells));
  const int32_t y1 = static_cast<int32_t>(rng->UniformInt(y0 + 2, cells));
  return ROI(x0 * cell, y0 * cell, x1 * cell, y1 * cell);
}

Spec ExplorationSpec(Rng* rng, Kind kind, ClassExplorer* explorer,
                     int32_t side) {
  QueryGenOptions gen;
  Spec s;
  s.kind = kind;
  s.labels = explorer->Next(rng, static_cast<size_t>(rng->UniformInt(2, 4)));
  const ValueRange range = RandomValueRange(rng, gen);
  s.lv = range.lv;
  s.uv = range.uv;
  s.desc = rng->NextBool(0.75);
  switch (kind) {
    case Kind::kFilter:
      s.object_roi = true;
      s.threshold = std::floor(rng->Uniform(0, 0.15) * side * side);
      break;
    case Kind::kTopK:
      s.rect = RandomRectangle(rng, side, side);
      break;
    case Kind::kAgg:
      s.object_roi = true;
      break;
    case Kind::kMaskAgg:
      s.object_roi = true;
      s.intersect = rng->NextBool();
      s.k = 10;
      break;
  }
  return s;
}

Spec VerifySpec(Rng* rng, Kind kind, int32_t side,
                const std::vector<MaskRecord>& records) {
  Spec s;
  s.kind = kind;
  s.labels = RandomLabels(rng, static_cast<size_t>(rng->UniformInt(3, 5)));
  // Off-grid ROI and a lower value bound just off a CHI bin edge: the
  // bounds straddle, so a large share of targeted masks need verification.
  s.rect = RandomRectangle(rng, side, side);
  const int edge = static_cast<int>(rng->UniformInt(6, 12));
  s.lv = edge / 16.0 + (rng->NextBool() ? 1 : -1) * rng->Uniform(0.005, 0.02);
  s.uv = 1.0;
  s.desc = rng->NextBool(0.75);
  if (kind == Kind::kFilter) {
    std::vector<double> cps = TargetCps(s, records);
    s.threshold = cps.empty() ? 0 : Quantile(cps, rng->Uniform(0.3, 0.7));
  }
  return s;
}

/// The occasional overview of the hot and live mixes (2% of their queries):
/// the mean CP of every image over all classes (`groups` >= the number of
/// images, so no group is pruned), on an off-grid ROI with an off-edge lower
/// value bound, so most masks need their exact CP. These are the mix's
/// slowest queries, so its p99 falls among them and measures their work
/// rather than the scheduling delays of the sub-millisecond rest. The ROI
/// has a fixed size and the bound one of three values, so that every seed
/// draws overviews of about the same cost.
Spec OverviewSpec(Rng* rng, int32_t side, int groups) {
  Spec s;
  s.kind = Kind::kAgg;
  const int32_t extent = side / 2 + 1;
  const auto x0 = static_cast<int32_t>(rng->UniformInt(0, side - extent));
  const auto y0 = static_cast<int32_t>(rng->UniformInt(0, side - extent));
  s.rect = ROI(x0, y0, x0 + extent, y0 + extent);
  s.lv = static_cast<double>(rng->UniformInt(3, 5)) / 16.0 + 0.01;
  s.k = groups;
  return s;
}

Spec HotSpec(Rng* rng, Kind kind, bool off_grid, int32_t side,
             const std::vector<MaskRecord>& records) {
  Spec s;
  s.kind = kind;
  if (kind == Kind::kAgg) {
    return OverviewSpec(rng, side, static_cast<int>(records.size()));
  }
  s.labels = RandomLabels(rng, 2);
  s.rect = AlignedRect(rng, side, std::max(1, side / 8));
  // Every other query has an edge one pixel off the grid, so a few masks
  // still need verification; the rest are decided by exact bounds.
  if (off_grid) s.rect.x1 += s.rect.x1 < side ? 1 : -1;
  s.lv = static_cast<double>(rng->UniformInt(8, 13)) / 16.0;
  s.uv = 1.0;
  s.k = 10;
  if (kind == Kind::kFilter) {
    std::vector<double> cps = TargetCps(s, records);
    s.threshold = cps.empty() ? 0 : Quantile(cps, 0.9);
  }
  return s;
}

/// `shape` fixes the selection size (cycling 6, 7, 8 of the 20 classes) so
/// that no seed draws a heavier mix.
Spec LiveSpec(Rng* rng, Kind kind, size_t shape, int32_t side) {
  // Above the live dataset's image count at any run length the benchmark
  // allows, so that an overview returns every image.
  constexpr int kLiveGroups = 100000;
  if (kind == Kind::kAgg) return OverviewSpec(rng, side, kLiveGroups);
  QueryGenOptions gen;
  Spec s;
  s.kind = kind;
  s.labels = RandomLabels(rng, 6 + shape % 3);
  const ValueRange range = RandomValueRange(rng, gen);
  s.lv = range.lv;
  s.uv = range.uv;
  s.object_roi = rng->NextBool();
  s.rect = RandomRectangle(rng, side, side);
  s.desc = rng->NextBool(0.75);
  s.threshold = std::floor(rng->Uniform(0, 0.1) * side * side);
  return s;
}

}  // namespace

Result<QuerySet> GenerateQueries(const WorkloadConfig& cfg, uint64_t seed,
                                 const std::vector<MaskRecord>& records) {
  Rng rng(seed * 7919 + 17);
  QuerySet set;
  const size_t n = cfg.distinct_queries;
  std::vector<Kind> kinds;
  switch (cfg.mix) {
    case QueryMix::kExploration:
      kinds = KindSequence(&rng, n, {{Kind::kFilter, 10}, {Kind::kTopK, 5},
                                     {Kind::kAgg, 3}, {Kind::kMaskAgg, 2}});
      break;
    case QueryMix::kVerify:
      kinds = KindSequence(&rng, n, {{Kind::kFilter, 10}, {Kind::kTopK, 5},
                                     {Kind::kAgg, 5}});
      break;
    case QueryMix::kHot:
    case QueryMix::kLive:
      kinds = KindSequence(&rng, n, {{Kind::kFilter, 49}, {Kind::kTopK, 49},
                                     {Kind::kAgg, 2}});
      break;
  }
  std::vector<std::unique_ptr<PreparedStatement>> prepared;
  if (cfg.prepared_fraction > 0) {
    for (const char* t : kHotTemplates) {
      set.templates.push_back(t);
      MS_ASSIGN_OR_RETURN(auto stmt, PreparedStatement::Prepare(t));
      prepared.push_back(std::move(stmt));
    }
  }

  ClassExplorer explorer(/*p_seen=*/0.5);
  for (size_t i = 0; i < n; ++i) {
    Spec s;
    switch (cfg.mix) {
      case QueryMix::kExploration:
        s = ExplorationSpec(&rng, kinds[i], &explorer, cfg.side);
        break;
      case QueryMix::kVerify:
        s = VerifySpec(&rng, kinds[i], cfg.side, records);
        break;
      case QueryMix::kHot:
        s = HotSpec(&rng, kinds[i], i % 2 == 1, cfg.side, records);
        break;
      case QueryMix::kLive:
        s = LiveSpec(&rng, kinds[i], i, cfg.side);
        break;
    }
    QueryItem item;
    item.sql = RenderSql(s);
    // Alternate one-shot text and EXECUTE in the configured proportion.
    const bool as_prepared =
        !prepared.empty() && s.kind != Kind::kAgg &&
        static_cast<double>(i % 10) < cfg.prepared_fraction * 10;
    if (as_prepared) {
      item.prepared = s.kind == Kind::kFilter ? 0 : 1;
      item.params = HotParams(s);
      MS_ASSIGN_OR_RETURN(
          item.request,
          prepared[static_cast<size_t>(item.prepared)]->BindRequest(
              item.params));
    } else {
      MS_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::ParseAndBind(item.sql));
      item.request = RequestFromBound(bound);
    }
    set.items.push_back(std::move(item));
  }
  return set;
}

}  // namespace perfbench
