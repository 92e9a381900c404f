// Edge cases across all four executors: empty selections, k = 1, single-
// member groups, degenerate ranges, unusual group keys.

#include <gtest/gtest.h>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/exec/session.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("edge");
    store_ = MakeStore(dir_->path(), 10, 2, 32, 32, /*seed=*/61);
    SessionOptions opts;
    opts.chi.cell_width = opts.chi.cell_height = 8;
    opts.chi.num_bins = 8;
    session_ = Session::Open(store_.get(), opts).ValueOrDie();
  }

  CpTerm ObjectTerm(double lv, double uv) const {
    CpTerm t;
    t.roi_source = RoiSource::kObjectBox;
    t.range = ValueRange(lv, uv);
    return t;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<Session> session_;
};

TEST_F(ExecutorEdgeTest, EmptySelectionYieldsEmptyResults) {
  Selection none;
  none.model_ids = {99};  // no such model

  FilterQuery fq;
  fq.selection = none;
  fq.terms = {ObjectTerm(0.1, 0.9)};
  fq.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 0.0);
  auto fr = session_->Filter(fq);
  ASSERT_TRUE(fr.ok());
  EXPECT_TRUE(fr->mask_ids.empty());
  EXPECT_EQ(fr->stats.masks_targeted, 0);

  TopKQuery tq;
  tq.selection = none;
  tq.terms = {ObjectTerm(0.1, 0.9)};
  tq.order_expr = CpExpr::Term(0);
  tq.k = 5;
  auto tr = session_->TopK(tq);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr->items.empty());

  AggregationQuery aq;
  aq.selection = none;
  aq.term = ObjectTerm(0.1, 0.9);
  aq.k = 5;
  auto ar = session_->Aggregate(aq);
  ASSERT_TRUE(ar.ok());
  EXPECT_TRUE(ar->groups.empty());

  MaskAggQuery mq;
  mq.selection = none;
  mq.term = ObjectTerm(0.7, 1.0);
  mq.k = 5;
  auto mr = session_->MaskAggregate(mq);
  ASSERT_TRUE(mr.ok());
  EXPECT_TRUE(mr->groups.empty());
}

TEST_F(ExecutorEdgeTest, TopOneMatchesReference) {
  TopKQuery q;
  q.terms = {ObjectTerm(0.5, 1.0)};
  q.order_expr = CpExpr::Term(0);
  q.k = 1;
  auto got = session_->TopK(q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.TopK(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].mask_id, want->items[0].mask_id);
}

TEST_F(ExecutorEdgeTest, DegenerateValueRangeReturnsNothing) {
  FilterQuery q;
  q.terms = {ObjectTerm(0.5, 0.5)};  // empty half-open interval
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 0.0);
  auto r = session_->Filter(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mask_ids.empty());
  EXPECT_EQ(r->stats.masks_loaded, 0);  // bounds are exactly [0, 0]
}

TEST_F(ExecutorEdgeTest, GreaterEqualZeroAcceptsEverythingWithoutLoads) {
  FilterQuery q;
  q.terms = {ObjectTerm(0.2, 0.8)};
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGe, 0.0);
  auto r = session_->Filter(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int64_t>(r->mask_ids.size()),
            store_->num_masks());
  EXPECT_EQ(r->stats.masks_loaded, 0);
}

TEST_F(ExecutorEdgeTest, GroupByMaskTypeSingleGroup) {
  AggregationQuery q;
  q.term = ObjectTerm(0.3, 0.9);
  q.op = ScalarAggOp::kMax;
  q.group_key = GroupKey::kMaskType;  // all masks share one type
  q.k = 3;
  auto got = session_->Aggregate(q);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->groups.size(), 1u);
  FullScanBaseline reference(store_.get());
  auto want = reference.Aggregate(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->groups[0].group, want->groups[0].group);
  EXPECT_DOUBLE_EQ(got->groups[0].value, want->groups[0].value);
}

TEST_F(ExecutorEdgeTest, SingleMemberGroupsInMaskAgg) {
  // Restricting to one model makes every image group a single mask; the
  // INTERSECT of one mask is its own thresholding.
  MaskAggQuery q;
  q.selection.model_ids = {0};
  q.op = MaskAggOp::kIntersectThreshold;
  q.agg_threshold = 0.5;
  q.term = ObjectTerm(0.5, 1.0);
  q.k = 4;
  auto got = session_->MaskAggregate(q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(ExecutorEdgeTest, HavingAcceptAllFromBounds) {
  AggregationQuery q;
  q.term = ObjectTerm(0.0, 1.0);  // CP == |object roi| exactly, from bounds
  q.op = ScalarAggOp::kSum;
  q.having_op = CompareOp::kGe;
  q.having_threshold = 0.0;
  auto r = session_->Aggregate(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 10u);
  EXPECT_EQ(r->stats.masks_loaded, 0);
  // Tight bounds carry exact values even without loading.
  for (const auto& g : r->groups) {
    EXPECT_GT(g.value, 0.0);
  }
}

TEST_F(ExecutorEdgeTest, RoiOutsideMaskCountsZero) {
  FilterQuery q;
  CpTerm t;
  t.roi_source = RoiSource::kConstant;
  t.constant_roi = ROI(1000, 1000, 2000, 2000);
  t.range = ValueRange(0.0, 1.0);
  q.terms = {t};
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 0.0);
  auto r = session_->Filter(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mask_ids.empty());
  EXPECT_EQ(r->stats.masks_loaded, 0);
}

TEST_F(ExecutorEdgeTest, MixedTightAndLooseTermsInOneExpression) {
  // Term 0 is tight from bounds (full range), term 1 is not: the combined
  // expression still evaluates exactly.
  TopKQuery q;
  q.terms = {ObjectTerm(0.0, 1.0), ObjectTerm(0.33, 0.77)};
  q.order_expr = CpExpr::Term(1) / (CpExpr::Term(0) + CpExpr::Constant(1.0));
  q.k = 5;
  auto got = session_->TopK(q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.TopK(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->items.size(), want->items.size());
  for (size_t i = 0; i < got->items.size(); ++i) {
    EXPECT_EQ(got->items[i].mask_id, want->items[i].mask_id);
    EXPECT_DOUBLE_EQ(got->items[i].value, want->items[i].value);
  }
}

/// Forwards every virtual of MaskStore to `inner`; the first load cancels
/// `control`, and every load adds its mask count to masks().
class CancelOnFirstLoad final : public MaskStore {
 public:
  CancelOnFirstLoad(const MaskStore* inner, QueryControl* control)
      : MaskStore(inner->dir(), inner->options(), inner->kind(), {}, {}),
        inner_(inner),
        control_(control) {}

  int64_t num_masks() const override { return inner_->num_masks(); }
  int32_t num_shards() const override { return inner_->num_shards(); }
  const MaskMeta& meta(MaskId id) const override { return inner_->meta(id); }
  const std::vector<MaskMeta>& metas() const override {
    return inner_->metas();
  }
  uint64_t BlobSize(MaskId id) const override { return inner_->BlobSize(id); }
  uint64_t TotalDataBytes() const override { return inner_->TotalDataBytes(); }

  Result<Mask> LoadMask(MaskId id) const override {
    Note(1);
    return inner_->LoadMask(id);
  }
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override {
    Note(ids.size());
    return inner_->LoadMaskBatch(ids);
  }
  Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const override {
    Note(1);
    return inner_->LoadMaskRows(id, y0, y1);
  }
  Status ReadBlob(MaskId id, std::string* out) const override {
    return inner_->ReadBlob(id, out);
  }

  size_t masks() const { return masks_.load(); }
  void Reset() {
    masks_ = 0;
    control_->cancelled = false;
  }

 private:
  void Note(size_t n) const {
    masks_.fetch_add(n);
    control_->Cancel();
  }

  const MaskStore* inner_;
  QueryControl* control_;
  mutable std::atomic<size_t> masks_{0};
};

TEST(ExecutorCancelTest, CancelInsideTheFirstLoadStopsAfterItsBatch) {
  // No index, so every mask (or group) needs a load. The first load
  // cancels the request; each executor must return Cancelled once the
  // batch in flight is done: the filter's four masks, top-k's first three
  // units (one mask each, until its heap of 3 is full) and the
  // aggregations' two groups of two masks — twice that with io_pool, which
  // prefetches one batch ahead (top-k and scalar top-k never prefetch).
  TempDir dir("cancel");
  auto inner = MakeStore(dir.path(), 20, 2, 32, 32);
  QueryControl control;
  CancelOnFirstLoad store(inner.get(), &control);
  CpTerm term;
  term.range = ValueRange(0.5, 1.0);
  FilterQuery filter;
  filter.terms = {term};
  filter.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 0.0);
  TopKQuery topk;
  topk.terms = {term};
  topk.order_expr = CpExpr::Term(0);
  topk.k = 3;
  AggregationQuery agg;
  agg.term = term;
  agg.k = 3;
  MaskAggQuery mask_agg;
  mask_agg.term = term;
  mask_agg.k = 3;
  ThreadPool pool(3);
  ThreadPool io_pool(2);
  const std::pair<ThreadPool*, ThreadPool*> schedules[] = {
      {nullptr, nullptr}, {&pool, &io_pool}};
  for (const auto& [compute, io] : schedules) {
    EngineOptions opts;
    opts.pool = compute;
    opts.io_pool = io;
    opts.control = &control;
    opts.filter_verify_batch = 4;
    opts.agg_verify_batch = 2;
    const size_t depth = io != nullptr ? 2 : 1;
    const std::function<Status()> runs[] = {
        [&] { return ExecuteFilter(store, nullptr, filter, opts).status(); },
        [&] { return ExecuteTopK(store, nullptr, topk, opts).status(); },
        [&] { return ExecuteAggregation(store, nullptr, agg, opts).status(); },
        [&] {
          return ExecuteMaskAgg(store, nullptr, nullptr, mask_agg, opts)
              .status();
        }};
    const size_t most[] = {4 * depth, 3, 4, 4 * depth};
    for (size_t e = 0; e < 4; ++e) {
      store.Reset();
      const Status st = runs[e]();
      EXPECT_TRUE(st.IsCancelled()) << "executor " << e << ": " << st;
      EXPECT_LE(store.masks(), most[e]) << "executor " << e;
    }
  }
}

}  // namespace
}  // namespace masksearch
