// Shared helpers for the MaskSearch test suite.

#ifndef MASKSEARCH_TESTS_TEST_UTIL_H_
#define MASKSEARCH_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>

#include "masksearch/common/random.h"
#include "masksearch/storage/codec.h"
#include "masksearch/storage/mask.h"
#include "masksearch/storage/mask_store.h"
#include "masksearch/workload/synthetic.h"

namespace masksearch {
namespace testing_util {

#define MS_ASSERT_OK(expr)                                   \
  do {                                                       \
    const ::masksearch::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

#define MS_EXPECT_OK(expr)                                   \
  do {                                                       \
    const ::masksearch::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

/// Unique scratch directory removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("masksearch_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Uniform-random mask with values in [0, 1).
inline Mask RandomMask(Rng* rng, int32_t w, int32_t h) {
  Mask m(w, h);
  for (float& v : m.mutable_data()) v = rng->NextFloat();
  return m;
}

/// Structured (blobby) mask, closer to real saliency maps than iid noise.
inline Mask BlobMask(Rng* rng, int32_t w, int32_t h) {
  SaliencySpec spec;
  spec.width = w;
  spec.height = h;
  const ROI box = GenerateObjectBox(rng, w, h);
  return GenerateSaliencyMask(rng, spec, box, rng->NextBool(0.3));
}

/// Builds a small store of random saliency-like masks: `num_images` images ×
/// `num_models` models, with object boxes and deterministic content.
inline std::unique_ptr<MaskStore> MakeStore(const std::string& dir,
                                            int64_t num_images,
                                            int32_t num_models, int32_t w,
                                            int32_t h, uint64_t seed = 7) {
  auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = w;
  spec.height = h;
  for (int64_t img = 0; img < num_images; ++img) {
    const ROI box = GenerateObjectBox(&rng, w, h);
    const bool dispersed = rng.NextBool(0.25);
    const std::vector<SaliencyBlob> blobs =
        SampleSaliencyBlobs(&rng, spec, box, dispersed);
    for (int32_t model = 0; model < num_models; ++model) {
      const std::vector<SaliencyBlob> model_blobs =
          model == 0 ? blobs : JitterSaliencyBlobs(&rng, blobs, 0.25, w, h);
      Mask mask = RenderSaliencyMask(&rng, spec, model_blobs);
      MaskMeta meta;
      meta.image_id = img;
      meta.model_id = model;
      meta.mask_type = MaskType::kSaliencyMap;
      meta.object_box = box;
      writer->Append(meta, mask).ValueOrDie();
    }
  }
  writer->Finish().CheckOK();
  return MaskStore::Open(dir).ValueOrDie();
}

/// Builds a compressed store of `num_images` images × 2 models of 12x10
/// masks in which mask `bad` holds a valid 10x12 codec frame: every read of
/// it fails with a Corruption naming "mask <bad>", every other mask loads.
inline std::unique_ptr<MaskStore> MakeStoreWithCorruptMask(
    const std::string& dir, int64_t num_images, MaskId bad) {
  MaskStoreWriter::Options wopts;
  wopts.kind = StorageKind::kCompressed;
  auto writer = MaskStoreWriter::Create(dir, wopts).ValueOrDie();
  Rng rng(23);
  for (MaskId id = 0; id < num_images * 2; ++id) {
    MaskMeta meta;
    meta.image_id = id / 2;
    meta.model_id = static_cast<ModelId>(id % 2);
    meta.width = 12;
    meta.height = 10;
    const Mask m =
        id == bad ? RandomMask(&rng, 10, 12) : RandomMask(&rng, 12, 10);
    writer->AppendBlob(meta, EncodeMask(m)).ValueOrDie();
  }
  writer->Finish().CheckOK();
  return MaskStore::Open(dir).ValueOrDie();
}

}  // namespace testing_util
}  // namespace masksearch

#endif  // MASKSEARCH_TESTS_TEST_UTIL_H_
