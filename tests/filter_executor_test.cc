// Tests for filter–verification execution (§3.2): correctness against the
// brute-force reference, pruning accounting, and all indexing regimes.

#include <gtest/gtest.h>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/exec/filter_executor.h"
#include "masksearch/exec/topk_executor.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

class FilterExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("filter");
    store_ = MakeStore(dir_->path(), /*num_images=*/20, /*num_models=*/2,
                       /*w=*/48, /*h=*/48, /*seed=*/11);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  FilterQuery ObjectQuery(double lv, double uv, double threshold) const {
    FilterQuery q;
    CpTerm term;
    term.roi_source = RoiSource::kObjectBox;
    term.range = ValueRange(lv, uv);
    q.terms.push_back(term);
    q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, threshold);
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

TEST_F(FilterExecutorTest, MatchesReferenceAcrossThresholds) {
  FullScanBaseline reference(store_.get());
  for (double threshold : {0.0, 50.0, 200.0, 800.0, 2000.0}) {
    const FilterQuery q = ObjectQuery(0.6, 1.0, threshold);
    auto got = ExecuteFilter(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok()) << got.status();
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->mask_ids, want->mask_ids) << "threshold " << threshold;
  }
}

TEST_F(FilterExecutorTest, StatsPartitionTargetedMasks) {
  const FilterQuery q = ObjectQuery(0.5, 0.9, 300.0);
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r->stats;
  EXPECT_EQ(s.masks_targeted, store_->num_masks());
  EXPECT_EQ(s.pruned + s.accepted_by_bounds + s.candidates, s.masks_targeted);
  EXPECT_EQ(s.masks_loaded, s.candidates);
  EXPECT_GE(s.FML(), 0.0);
  EXPECT_LE(s.FML(), 1.0);
}

TEST_F(FilterExecutorTest, IndexReducesLoadsButNotResults) {
  const FilterQuery q = ObjectQuery(0.6, 1.0, 100.0);
  auto with_index = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(with_index.ok());

  EngineOptions no_index;
  no_index.use_index = false;
  auto without = ExecuteFilter(*store_, nullptr, q, no_index);
  ASSERT_TRUE(without.ok());

  EXPECT_EQ(with_index->mask_ids, without->mask_ids);
  EXPECT_EQ(without->stats.masks_loaded, store_->num_masks());
  EXPECT_LT(with_index->stats.masks_loaded, without->stats.masks_loaded);
}

TEST_F(FilterExecutorTest, IncrementalIndexingBuildsOnlyLoadedMasks) {
  IndexManager empty(store_->num_masks(), TestConfig());
  EngineOptions opts;
  opts.build_missing = true;
  const FilterQuery q = ObjectQuery(0.6, 1.0, 100.0);
  auto first = ExecuteFilter(*store_, &empty, q, opts);
  ASSERT_TRUE(first.ok());
  // No index yet: every mask is loaded and indexed (§3.6).
  EXPECT_EQ(first->stats.masks_loaded, store_->num_masks());
  EXPECT_EQ(first->stats.chis_built, store_->num_masks());
  EXPECT_EQ(static_cast<int64_t>(empty.num_built()), store_->num_masks());

  // Second identical query now benefits from the incrementally built index.
  auto second = ExecuteFilter(*store_, &empty, q, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mask_ids, first->mask_ids);
  EXPECT_LT(second->stats.masks_loaded, first->stats.masks_loaded);
  EXPECT_EQ(second->stats.chis_built, 0);
}

TEST_F(FilterExecutorTest, SelectionByModel) {
  FilterQuery q = ObjectQuery(0.5, 1.0, -1.0);  // always true
  q.selection.model_ids = {1};
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.masks_targeted, store_->num_masks() / 2);
  for (MaskId id : r->mask_ids) {
    EXPECT_EQ(store_->meta(id).model_id, 1);
  }
}

TEST_F(FilterExecutorTest, SelectionByExplicitIds) {
  FilterQuery q = ObjectQuery(0.5, 1.0, -1.0);
  q.selection.mask_ids = {3, 1, 7, 3};  // duplicates and disorder
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mask_ids, (std::vector<MaskId>{1, 3, 7}));
}

TEST_F(FilterExecutorTest, TrivialPredicatesShortCircuit) {
  // Always-true predicate: every mask accepted from bounds, zero loads.
  const FilterQuery yes = ObjectQuery(0.0, 1.0, -1.0);
  auto r1 = ExecuteFilter(*store_, index_.get(), yes);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.masks_loaded, 0);
  EXPECT_EQ(static_cast<int64_t>(r1->mask_ids.size()), store_->num_masks());

  // Impossible predicate (> area): every mask pruned, zero loads.
  const FilterQuery no = ObjectQuery(0.0, 1.0, 1e9);
  auto r2 = ExecuteFilter(*store_, index_.get(), no);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.masks_loaded, 0);
  EXPECT_TRUE(r2->mask_ids.empty());
}

TEST_F(FilterExecutorTest, CompoundPredicate) {
  FilterQuery q;
  CpTerm t0;
  t0.roi_source = RoiSource::kObjectBox;
  t0.range = ValueRange(0.7, 1.0);
  CpTerm t1;
  t1.roi_source = RoiSource::kFullMask;
  t1.range = ValueRange(0.7, 1.0);
  q.terms = {t0, t1};
  std::vector<Predicate> kids;
  // Salient mass inside the object is less than half the total: the
  // dispersed-mask hunt of Scenario 1.
  kids.push_back(Predicate::Compare(
      CpExpr::Term(0) - CpExpr::Constant(0.5) * CpExpr::Term(1),
      CompareOp::kLt, 0.0));
  kids.push_back(Predicate::Compare(CpExpr::Term(1), CompareOp::kGt, 50.0));
  q.predicate = Predicate::And(std::move(kids));

  auto got = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Filter(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
  EXPECT_FALSE(got->mask_ids.empty());  // dataset contains dispersed masks
}

TEST_F(FilterExecutorTest, LessThanPredicate) {
  FilterQuery q = ObjectQuery(0.8, 1.0, 0.0);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kLt, 50.0);
  auto got = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Filter(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
}

TEST_F(FilterExecutorTest, ParallelExecutionMatchesSequential) {
  ThreadPool pool(4);
  EngineOptions par;
  par.pool = &pool;
  for (int i = 0; i < 5; ++i) {
    Rng rng(500 + i);
    const FilterQuery q = GenerateFilterQuery(&rng, *store_);
    auto seq = ExecuteFilter(*store_, index_.get(), q);
    auto parr = ExecuteFilter(*store_, index_.get(), q, par);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(parr.ok());
    EXPECT_EQ(seq->mask_ids, parr->mask_ids);
    EXPECT_EQ(seq->stats.masks_loaded, parr->stats.masks_loaded);
  }
}

TEST_F(FilterExecutorTest, RandomizedQueriesMatchReference) {
  FullScanBaseline reference(store_.get());
  Rng rng(999);
  for (int i = 0; i < 25; ++i) {
    const FilterQuery q = GenerateFilterQuery(&rng, *store_);
    auto got = ExecuteFilter(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok());
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->mask_ids, want->mask_ids) << "query " << i;
    // The index never loads more than the baseline.
    ASSERT_LE(got->stats.masks_loaded, want->stats.masks_loaded);
  }
}

TEST_F(FilterExecutorTest, PipelinedVerificationMatchesSerial) {
  // The serial schedule (no pools: one batch in flight, loads at verify
  // time) and the pooled and overlapped schedules of the verification
  // pipeline must agree on results and on every per-mask stat; only the
  // I/O request pattern may differ. A small batch forces several pipeline
  // refills.
  ThreadPool pool(4);
  ThreadPool io_pool(2);
  for (double threshold : {0.0, 100.0, 500.0}) {
    const FilterQuery q = ObjectQuery(0.55, 1.0, threshold);
    auto want = ExecuteFilter(*store_, index_.get(), q);
    ASSERT_TRUE(want.ok()) << want.status();

    EngineOptions pooled;
    pooled.pool = &pool;
    pooled.filter_verify_batch = 5;
    EngineOptions overlapped = pooled;
    overlapped.io_pool = &io_pool;
    EngineOptions aliased = pooled;
    aliased.io_pool = &pool;
    for (const EngineOptions& opts : {pooled, overlapped, aliased}) {
      auto got = ExecuteFilter(*store_, index_.get(), q, opts);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->mask_ids, want->mask_ids) << "threshold " << threshold;
      EXPECT_EQ(got->stats.masks_loaded, want->stats.masks_loaded);
      EXPECT_EQ(got->stats.pruned, want->stats.pruned);
      EXPECT_EQ(got->stats.accepted_by_bounds, want->stats.accepted_by_bounds);
      EXPECT_EQ(got->stats.candidates, want->stats.candidates);
      EXPECT_EQ(got->stats.bytes_read, want->stats.bytes_read);
    }
  }
}

TEST(FilterPipelineFailureTest, FailedLoadReturnsItsOwnStatus) {
  // Mask 13 is corrupt. With no index every mask is verified, four per
  // batch, so its load fails in the fourth of six batches — under io_pool
  // as a prefetch while batch three is verified. Top-k (k above the mask
  // count, so its heap never fills) verifies one mask per unit, four units
  // per batch, and reaches mask 13 in its fourth batch too. Every schedule
  // must return the load's own Corruption (not a generic I/O error) and
  // must not hang on the loads still in flight.
  TempDir dir("filter_corrupt");
  auto store = testing_util::MakeStoreWithCorruptMask(dir.path(), 12, 13);
  FilterQuery q;
  q.terms.emplace_back();
  q.terms[0].range = ValueRange(0.5, 1.0);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 10.0);
  TopKQuery topk;
  topk.terms = q.terms;
  topk.order_expr = CpExpr::Term(0);
  topk.k = 30;
  ThreadPool pool(3);
  ThreadPool io_pool(2);
  const std::pair<ThreadPool*, ThreadPool*> schedules[] = {
      {nullptr, nullptr}, {&pool, nullptr}, {nullptr, &io_pool},
      {&pool, &io_pool},  {&pool, &pool}};
  for (const auto& [compute, io] : schedules) {
    EngineOptions opts;
    opts.pool = compute;
    opts.io_pool = io;
    opts.filter_verify_batch = 4;
    for (const Status& st :
         {ExecuteFilter(*store, nullptr, q, opts).status(),
          ExecuteTopK(*store, nullptr, topk, opts).status()}) {
      ASSERT_TRUE(st.IsCorruption()) << st;
      EXPECT_NE(st.message().find("mask 13"), std::string::npos) << st;
    }
  }
}

TEST_F(FilterExecutorTest, StagedPathOnShardedStoreMatchesReference) {
  TempDir sharded_dir("filter_sharded");
  MS_ASSERT_OK(ReshardMaskStore(*store_, sharded_dir.path(), 4));
  ThreadPool io_pool(3);
  MaskStore::Options sopts;
  sopts.io_pool = &io_pool;
  auto sharded = MaskStore::Open(sharded_dir.path(), sopts).ValueOrDie();

  FullScanBaseline reference(store_.get());
  ThreadPool pool(4);
  EngineOptions opts;
  opts.pool = &pool;
  opts.io_pool = &io_pool;
  opts.filter_verify_batch = 7;
  for (double threshold : {50.0, 400.0}) {
    const FilterQuery q = ObjectQuery(0.6, 1.0, threshold);
    auto got = ExecuteFilter(*sharded, index_.get(), q, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->mask_ids, want->mask_ids) << "threshold " << threshold;
  }
}

TEST_F(FilterExecutorTest, InvalidQueriesRejected) {
  FilterQuery empty;
  EXPECT_TRUE(
      ExecuteFilter(*store_, index_.get(), empty).status().IsInvalidArgument());

  FilterQuery bad_term;
  bad_term.predicate =
      Predicate::Compare(CpExpr::Term(3), CompareOp::kGt, 0.0);
  EXPECT_TRUE(ExecuteFilter(*store_, index_.get(), bad_term)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace masksearch
