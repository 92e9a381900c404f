// Workload table, dataset synthesis and the ingest-path store loader.

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::vector<WorkloadConfig> AllWorkloads() {
  std::vector<WorkloadConfig> all;
  {
    // The paper's regime: modeled EBS-like disk, data 4x the buffer pool.
    WorkloadConfig w;
    w.name = "explore_disk";
    w.side = 96;
    w.images = 300;
    w.mix = QueryMix::kExploration;
    w.disk_bytes_per_sec = 125 * kMiB;
    w.disk_latency_us = 200;
    w.disk_queue_depth = 16;
    w.pool_fraction = 0.25;
    w.io_pool = true;
    all.push_back(w);
  }
  {
    // CPU-bound verification: compressed masks, no disk model, no pool.
    WorkloadConfig w;
    w.name = "verify_cpu";
    w.side = 112;
    w.images = 500;
    w.kind = StorageKind::kCompressed;
    w.distinct_queries = 1024;
    w.mix = QueryMix::kVerify;
    w.slices = 5;
    all.push_back(w);
  }
  {
    // Per-request path: small raw masks, everything resident, bounds decide.
    WorkloadConfig w;
    w.name = "hot_serve";
    w.side = 40;
    w.images = 2000;
    w.mix = QueryMix::kHot;
    w.pool_fraction = 2.5;
    w.warm_cache = true;
    w.prepared_fraction = 0.5;
    w.clients = 3;
    w.slices = 12;
    all.push_back(w);
  }
  {
    // Writes beside reads: a live dataset seeded with initial masks.
    WorkloadConfig w;
    w.name = "live_ingest";
    w.side = 40;
    w.images = 1500;
    w.mix = QueryMix::kLive;
    w.clients = 2;
    w.slices = 6;
    w.distinct_queries = 512;
    all.push_back(w);
  }
  return all;
}

}  // namespace

Result<WorkloadConfig> FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

ChiConfig BenchChiConfig(int32_t side) {
  ChiConfig cfg;
  cfg.cell_width = std::max(1, side / 8);
  cfg.cell_height = std::max(1, side / 8);
  cfg.num_bins = 16;
  return cfg;
}

std::vector<MaskRecord> SynthesizeMasks(const WorkloadConfig& cfg,
                                        uint64_t seed, int64_t first_image,
                                        int64_t images) {
  constexpr int32_t kClasses = 20;
  constexpr double kDispersed = 0.15;
  constexpr double kErrorRate = 0.08;
  SaliencySpec spec;
  spec.width = cfg.side;
  spec.height = cfg.side;

  std::vector<MaskRecord> out;
  out.reserve(static_cast<size_t>(images * cfg.models));
  for (int64_t image = first_image; image < first_image + images; ++image) {
    // One generator per image: appending images later (live ingest)
    // reproduces exactly the masks a one-shot synthesis would.
    Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(image));
    const ROI box = GenerateObjectBox(&rng, spec.width, spec.height);
    const bool dispersed = rng.NextBool(kDispersed);
    const int32_t label =
        static_cast<int32_t>(rng.UniformInt(0, kClasses - 1));
    const double err = dispersed ? kErrorRate * 4 : kErrorRate;
    const int32_t predicted =
        rng.NextBool(err)
            ? static_cast<int32_t>(rng.UniformInt(0, kClasses - 1))
            : label;
    const std::vector<SaliencyBlob> blobs =
        SampleSaliencyBlobs(&rng, spec, box, dispersed);
    for (int32_t model = 0; model < cfg.models; ++model) {
      const std::vector<SaliencyBlob> model_blobs =
          model == 0 ? blobs
                     : JitterSaliencyBlobs(&rng, blobs, 0.25, spec.width,
                                           spec.height);
      MaskRecord rec;
      rec.mask = RenderSaliencyMask(&rng, spec, model_blobs);
      rec.meta.image_id = image;
      rec.meta.model_id = model;
      rec.meta.mask_type = MaskType::kSaliencyMap;
      rec.meta.width = spec.width;
      rec.meta.height = spec.height;
      rec.meta.label = label;
      rec.meta.predicted_label = predicted;
      rec.meta.object_box = box;
      out.push_back(std::move(rec));
    }
  }
  return out;
}

Status WriteStore(const std::string& dir, const WorkloadConfig& cfg,
                  const std::vector<MaskRecord>& records) {
  MS_RETURN_NOT_OK(RemovePathRecursive(dir));
  MaskStoreWriter::Options opts;
  opts.kind = cfg.kind;
  MS_ASSIGN_OR_RETURN(auto writer, MaskStoreWriter::Create(dir, opts));
  for (const MaskRecord& rec : records) {
    MS_RETURN_NOT_OK(writer->Append(rec.meta, rec.mask).status());
  }
  return writer->Finish();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirectoryBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

}  // namespace perfbench
