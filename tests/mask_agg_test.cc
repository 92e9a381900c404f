// Tests for mask aggregation (§3.4, Q5): derived masks, derived-index
// caching, and the monotone-aggregation bounds extension.

#include <gtest/gtest.h>

#include <cstring>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/exec/agg_executor.h"
#include "masksearch/exec/mask_agg.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::RandomMask;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

TEST(DerivedMaskTest, IntersectThreshold) {
  Mask a(2, 2), b(2, 2);
  a.set(0, 0, 0.9f);
  b.set(0, 0, 0.85f);
  a.set(1, 0, 0.9f);
  b.set(1, 0, 0.5f);  // below threshold in b
  auto d = ComputeDerivedMask(MaskAggOp::kIntersectThreshold, 0.8, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->at(0, 0), DerivedMaskOne());
  EXPECT_EQ(d->at(1, 0), 0.0f);
  EXPECT_EQ(d->at(0, 1), 0.0f);
}

TEST(DerivedMaskTest, UnionThreshold) {
  Mask a(2, 1), b(2, 1);
  a.set(0, 0, 0.9f);
  b.set(1, 0, 0.85f);
  auto d = ComputeDerivedMask(MaskAggOp::kUnionThreshold, 0.8, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->at(0, 0), DerivedMaskOne());
  EXPECT_EQ(d->at(1, 0), DerivedMaskOne());
}

TEST(DerivedMaskTest, Average) {
  Mask a(1, 1), b(1, 1);
  a.set(0, 0, 0.2f);
  b.set(0, 0, 0.6f);
  auto d = ComputeDerivedMask(MaskAggOp::kAverage, 0.0, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->at(0, 0), 0.4f, 1e-6);
}

TEST(DerivedMaskTest, ValidatesInputs) {
  EXPECT_TRUE(ComputeDerivedMask(MaskAggOp::kAverage, 0, {})
                  .status()
                  .IsInvalidArgument());
  Mask a(2, 2), b(3, 3);
  EXPECT_TRUE(ComputeDerivedMask(MaskAggOp::kAverage, 0, {a, b})
                  .status()
                  .IsInvalidArgument());
}

TEST(DerivedIndexCacheTest, PutGetAndFirstWins) {
  DerivedIndexCache cache(TestConfig());
  EXPECT_EQ(cache.Get(7), nullptr);
  Rng rng(1);
  Mask m = RandomMask(&rng, 16, 16);
  cache.Put(7, BuildChi(m, TestConfig()));
  const std::shared_ptr<const Chi> first = cache.Get(7);
  ASSERT_NE(first, nullptr);
  cache.Put(7, BuildChi(RandomMask(&rng, 16, 16), TestConfig()));
  EXPECT_EQ(cache.Get(7).get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
}

class MaskAggExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("maskagg");
    store_ = MakeStore(dir_->path(), 16, 2, 48, 48, /*seed=*/55);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  MaskAggQuery IntersectQuery(size_t k) const {
    MaskAggQuery q;
    q.op = MaskAggOp::kIntersectThreshold;
    q.agg_threshold = 0.7;
    q.term.roi_source = RoiSource::kObjectBox;
    q.term.range = ValueRange(0.7, 1.0);  // counts the "1" pixels
    q.group_key = GroupKey::kImageId;
    q.k = k;
    q.descending = true;
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

TEST_F(MaskAggExecTest, IntersectTopKMatchesReference) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group) << "rank " << i;
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, UnionAndAverageMatchReference) {
  FullScanBaseline reference(store_.get());
  for (MaskAggOp op : {MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(4);
    q.op = op;
    if (op == MaskAggOp::kAverage) q.term.range = ValueRange(0.5, 1.0);
    DerivedIndexCache cache(TestConfig());
    auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
    ASSERT_TRUE(got.ok());
    auto want = reference.MaskAggregate(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->groups.size(), want->groups.size());
    for (size_t i = 0; i < got->groups.size(); ++i) {
      EXPECT_EQ(got->groups[i].group, want->groups[i].group);
      EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
    }
  }
}

TEST_F(MaskAggExecTest, MemberBoundsPruneWithoutDerivedIndex) {
  // Even with no derived CHIs cached, the member-CHI bounds (§3.4 extension)
  // must prune some groups for a selective having predicate.
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 1e9;  // nothing passes; member upper bounds prove it
  auto r = ExecuteMaskAgg(*store_, index_.get(), nullptr, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->groups.empty());
  EXPECT_EQ(r->stats.masks_loaded, 0);
}

TEST_F(MaskAggExecTest, DerivedCacheAmortizesLoads) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto first = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(first.ok());
  const int64_t first_loads = first->stats.masks_loaded;
  EXPECT_GT(cache.size(), 0u);

  auto second = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->stats.masks_loaded, first_loads);
  ASSERT_EQ(second->groups.size(), first->groups.size());
  for (size_t i = 0; i < first->groups.size(); ++i) {
    EXPECT_EQ(second->groups[i].group, first->groups[i].group);
    EXPECT_DOUBLE_EQ(second->groups[i].value, first->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, ZeroRangeCountsComplement) {
  // CP over the derived mask counting *zero* pixels (range excludes the ONE
  // value): complement accounting in the member-derived bounds.
  MaskAggQuery q = IntersectQuery(4);
  q.term.range = ValueRange(0.0, 0.5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, AheadOfTimeDerivedIndexBuild) {
  // §3.4: derived indexes "built ahead of time". After BuildDerivedIndexes,
  // a selective HAVING query runs without loading any mask.
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  MS_ASSERT_OK(BuildDerivedIndexes(*store_, q.selection, q.op,
                                   q.agg_threshold, q.group_key, &cache));
  EXPECT_EQ(cache.size(), 16u);  // one derived CHI per image

  MaskAggQuery having = q;
  having.k.reset();
  having.having_op = CompareOp::kGt;
  having.having_threshold = 1e9;  // certainly false from bounds
  auto r = ExecuteMaskAgg(*store_, index_.get(), &cache, having);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.masks_loaded, 0);

  // Results via the prebuilt cache equal the reference.
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
  // Idempotent: a second build call touches nothing.
  const uint64_t loads_before = store_->masks_loaded();
  MS_ASSERT_OK(BuildDerivedIndexes(*store_, q.selection, q.op,
                                   q.agg_threshold, q.group_key, &cache));
  EXPECT_EQ(store_->masks_loaded(), loads_before);
}

TEST_F(MaskAggExecTest, InvalidQueriesRejected) {
  MaskAggQuery neither = IntersectQuery(0);
  neither.k.reset();
  EXPECT_TRUE(ExecuteMaskAgg(*store_, index_.get(), nullptr, neither)
                  .status()
                  .IsInvalidArgument());
}

// Parallel batched verification must return byte-identical results to the
// serial schedule, and its filter-stage stats must stay consistent: the
// same groups are partitioned across pruned / accepted / candidates, with
// batching (and prefetch-ahead) only allowed to move groups from pruned to
// candidates (stale heap at decision time — strictly conservative).
class MaskAggParallelTest : public MaskAggExecTest {
 protected:
  /// Runs the query under `parallel` and compares against the exact serial
  /// schedule on the same store.
  void ExpectMatchesSerial(const MaskStore& store, const MaskAggQuery& q,
                           const EngineOptions& parallel) {
    EngineOptions serial;
    serial.pool = nullptr;  // batch size degenerates to 1: exact serial path
    DerivedIndexCache serial_cache(TestConfig());
    auto want = ExecuteMaskAgg(store, index_.get(), &serial_cache, q, serial);
    ASSERT_TRUE(want.ok()) << want.status();

    DerivedIndexCache parallel_cache(TestConfig());
    auto got =
        ExecuteMaskAgg(store, index_.get(), &parallel_cache, q, parallel);
    ASSERT_TRUE(got.ok()) << got.status();

    ASSERT_EQ(got->groups.size(), want->groups.size());
    for (size_t i = 0; i < want->groups.size(); ++i) {
      EXPECT_EQ(got->groups[i].group, want->groups[i].group) << "rank " << i;
      // Byte-identical values (both are exact integer counts or identical
      // tight bounds).
      EXPECT_EQ(std::memcmp(&got->groups[i].value, &want->groups[i].value,
                            sizeof(double)),
                0)
          << "rank " << i;
    }
    const ExecStats& ps = got->stats;
    const ExecStats& ss = want->stats;
    EXPECT_EQ(ps.pruned + ps.accepted_by_bounds + ps.candidates,
              ss.pruned + ss.accepted_by_bounds + ss.candidates);
    // Batching can only move serial-pruned groups into the other buckets.
    EXPECT_LE(ps.pruned, ss.pruned);
    EXPECT_GE(ps.accepted_by_bounds, ss.accepted_by_bounds);
    EXPECT_GE(ps.candidates, ss.candidates);
    // Every group the serial run indexed is indexed by the parallel run too.
    EXPECT_GE(parallel_cache.size(), serial_cache.size());
  }

  void ExpectParallelMatchesSerial(const MaskAggQuery& q) {
    ThreadPool pool(4);
    EngineOptions parallel;
    parallel.pool = &pool;
    parallel.agg_verify_batch = 8;
    ExpectMatchesSerial(*store_, q, parallel);
  }

  /// The overlapped pipeline (io_pool, double buffering) over a sharded
  /// copy of the store, with shard-parallel batch reads, must still match
  /// the serial schedule byte for byte.
  void ExpectOverlappedShardedMatchesSerial(const MaskAggQuery& q) {
    TempDir sharded_dir("maskagg_sharded");
    MS_ASSERT_OK(ReshardMaskStore(*store_, sharded_dir.path(), 4));
    ThreadPool pool(4);
    ThreadPool io_pool(3);
    MaskStore::Options sopts;
    sopts.io_pool = &io_pool;
    auto sharded = MaskStore::Open(sharded_dir.path(), sopts).ValueOrDie();

    EngineOptions overlapped;
    overlapped.pool = &pool;
    overlapped.io_pool = &io_pool;
    overlapped.agg_verify_batch = 4;
    ExpectMatchesSerial(*sharded, q, overlapped);

    // io_pool aliasing the compute pool must also be safe (ParallelFor
    // caller participation keeps nested loops deadlock-free).
    EngineOptions aliased = overlapped;
    aliased.io_pool = &pool;
    ExpectMatchesSerial(*sharded, q, aliased);
  }
};

TEST_F(MaskAggParallelTest, TopKDeterministic) {
  for (MaskAggOp op : {MaskAggOp::kIntersectThreshold,
                       MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(5);
    q.op = op;
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MaskAggParallelTest, TopKAscendingWithHavingDeterministic) {
  MaskAggQuery q = IntersectQuery(4);
  q.descending = false;
  q.having_op = CompareOp::kGt;
  q.having_threshold = 10.0;
  ExpectParallelMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, HavingOnlyDeterministic) {
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 50.0;
  ExpectParallelMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, OverlappedShardedTopKDeterministic) {
  for (MaskAggOp op : {MaskAggOp::kIntersectThreshold,
                       MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(5);
    q.op = op;
    ExpectOverlappedShardedMatchesSerial(q);
  }
}

TEST_F(MaskAggParallelTest, OverlappedShardedHavingOnlyDeterministic) {
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 50.0;
  ExpectOverlappedShardedMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, OverlappedShardedAscendingWithHavingDeterministic) {
  MaskAggQuery q = IntersectQuery(4);
  q.descending = false;
  q.having_op = CompareOp::kGt;
  q.having_threshold = 10.0;
  ExpectOverlappedShardedMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, ParallelMatchesFullScanReference) {
  ThreadPool pool(3);
  EngineOptions opts;
  opts.pool = &pool;
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q, opts);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, RepeatedQueryDoesNotRebuildDerivedChis) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto first = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.chis_built, 0);
  const size_t cached = cache.size();

  // Every verified group's derived CHI is now cached: a repeat of the same
  // query must not pay any CHI build again.
  auto second = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.chis_built, 0);
  EXPECT_EQ(cache.size(), cached);
}

TEST_F(MaskAggExecTest, PipelineMatchesSerialSchedule) {
  // Against the serial schedule (no pools), a pooled run with one group per
  // batch takes every top-k decision on the same heap, and a HAVING-only
  // query classifies every group before verification, so both must match
  // it in results and in every stat — overlapped, aliased or not.
  ThreadPool pool(3);
  ThreadPool io_pool(2);
  EngineOptions one_group;
  one_group.pool = &pool;
  one_group.agg_verify_batch = 1;
  EngineOptions overlapped;
  overlapped.pool = &pool;
  overlapped.io_pool = &io_pool;
  overlapped.agg_verify_batch = 4;
  EngineOptions aliased = overlapped;
  aliased.io_pool = &pool;
  MaskAggQuery having = IntersectQuery(0);
  having.k.reset();
  having.having_op = CompareOp::kGt;
  having.having_threshold = 50.0;
  const std::pair<MaskAggQuery, EngineOptions> runs[] = {
      {IntersectQuery(6), one_group},
      {having, one_group},
      {having, overlapped},
      {having, aliased}};
  for (const auto& [q, opts] : runs) {
    DerivedIndexCache c1(TestConfig()), c2(TestConfig());
    auto a = ExecuteMaskAgg(*store_, index_.get(), &c1, q);
    auto b = ExecuteMaskAgg(*store_, index_.get(), &c2, q, opts);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->groups.size(), b->groups.size());
    for (size_t i = 0; i < a->groups.size(); ++i) {
      EXPECT_EQ(a->groups[i].group, b->groups[i].group);
      EXPECT_DOUBLE_EQ(a->groups[i].value, b->groups[i].value);
    }
    EXPECT_EQ(a->stats.masks_loaded, b->stats.masks_loaded);
    EXPECT_EQ(a->stats.bytes_read, b->stats.bytes_read);
    EXPECT_EQ(a->stats.chis_built, b->stats.chis_built);
    EXPECT_EQ(a->stats.pruned, b->stats.pruned);
    EXPECT_EQ(a->stats.accepted_by_bounds, b->stats.accepted_by_bounds);
    EXPECT_EQ(a->stats.candidates, b->stats.candidates);
  }
}

TEST(MaskAggPipelineFailureTest, FailedLoadReturnsItsOwnStatus) {
  // Mask 13 (image 6) is corrupt. With no CHIs no group is decided by
  // bounds, so groups verify in key order, two per batch, and group 6's
  // load fails in the fourth batch — under io_pool as a prefetch while
  // batch three is verified. Scalar aggregation verifies the same way,
  // except that its top-k goes one group per batch once its heap of 3 is
  // full, and never prefetches. Both query shapes of both executors, under
  // every schedule, must return the load's own Corruption and must not hang
  // on in-flight loads.
  TempDir dir("maskagg_corrupt");
  auto store = testing_util::MakeStoreWithCorruptMask(dir.path(), 12, 13);
  MaskAggQuery topk;
  topk.op = MaskAggOp::kUnionThreshold;
  topk.agg_threshold = 0.5;
  topk.term.range = ValueRange(0.5, 1.0);
  topk.group_key = GroupKey::kImageId;
  topk.k = 3;
  MaskAggQuery having = topk;
  having.k.reset();
  having.having_op = CompareOp::kGt;
  having.having_threshold = 10.0;
  AggregationQuery scalar_topk;
  scalar_topk.term = topk.term;
  scalar_topk.op = ScalarAggOp::kSum;
  scalar_topk.k = 3;
  AggregationQuery scalar_having = scalar_topk;
  scalar_having.k.reset();
  scalar_having.having_op = CompareOp::kGt;
  scalar_having.having_threshold = 10.0;
  ThreadPool pool(3);
  ThreadPool io_pool(2);
  const std::pair<ThreadPool*, ThreadPool*> schedules[] = {
      {nullptr, nullptr}, {&pool, nullptr}, {nullptr, &io_pool},
      {&pool, &io_pool},  {&pool, &pool}};
  for (const auto& [compute, io] : schedules) {
    EngineOptions opts;
    opts.pool = compute;
    opts.io_pool = io;
    opts.agg_verify_batch = 2;
    for (const Status& st :
         {ExecuteMaskAgg(*store, nullptr, nullptr, topk, opts).status(),
          ExecuteMaskAgg(*store, nullptr, nullptr, having, opts).status(),
          ExecuteAggregation(*store, nullptr, scalar_topk, opts).status(),
          ExecuteAggregation(*store, nullptr, scalar_having, opts).status()}) {
      ASSERT_TRUE(st.IsCorruption()) << st;
      EXPECT_NE(st.message().find("mask 13"), std::string::npos) << st;
    }
  }
}

}  // namespace
}  // namespace masksearch
