// Tests for Session: the MS / MS-II / index-less regimes and CHI
// persistence across sessions (§3.6).

#include <gtest/gtest.h>

#include "masksearch/exec/session.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

SessionOptions BaseOptions() {
  SessionOptions opts;
  opts.chi.cell_width = 8;
  opts.chi.cell_height = 8;
  opts.chi.num_bins = 8;
  return opts;
}

FilterQuery SimpleQuery(double threshold) {
  FilterQuery q;
  CpTerm term;
  term.roi_source = RoiSource::kObjectBox;
  term.range = ValueRange(0.6, 1.0);
  q.terms.push_back(term);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, threshold);
  return q;
}

TEST(SessionTest, VanillaBuildsAllIndexesAtOpen) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 10, 2, 32, 32);
  auto session = Session::Open(store.get(), BaseOptions()).ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(session->index().num_built()),
            store->num_masks());
  EXPECT_GE(session->index_build_seconds(), 0.0);
}

TEST(SessionTest, OpenReturnsTheFailingLoadsOwnStatus) {
  // Mask 13 is corrupt: the bulk CHI build must surface its Corruption,
  // naming the mask, whether or not the build runs on a pool.
  TempDir dir("sess_corrupt");
  auto store = testing_util::MakeStoreWithCorruptMask(dir.path(), 12, 13);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SessionOptions opts = BaseOptions();
    opts.pool = p;
    auto session = Session::Open(store.get(), opts);
    ASSERT_TRUE(session.status().IsCorruption()) << session.status();
    EXPECT_NE(session.status().message().find("mask 13"), std::string::npos)
        << session.status();
  }
}

TEST(SessionTest, IncrementalStartsEmpty) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 10, 2, 32, 32);
  SessionOptions opts = BaseOptions();
  opts.incremental = true;
  auto session = Session::Open(store.get(), opts).ValueOrDie();
  EXPECT_EQ(session->index().num_built(), 0u);
  EXPECT_EQ(session->index_build_seconds(), 0.0);
}

TEST(SessionTest, AllRegimesAgreeOnResults) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 15, 2, 32, 32, /*seed=*/77);

  auto ms = Session::Open(store.get(), BaseOptions()).ValueOrDie();

  SessionOptions ii = BaseOptions();
  ii.incremental = true;
  auto msii = Session::Open(store.get(), ii).ValueOrDie();

  SessionOptions off = BaseOptions();
  off.use_index = false;
  auto scan = Session::Open(store.get(), off).ValueOrDie();

  Rng rng(123);
  for (int i = 0; i < 10; ++i) {
    const FilterQuery q = GenerateFilterQuery(&rng, *store);
    auto a = ms->Filter(q);
    auto b = msii->Filter(q);
    auto c = scan->Filter(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a->mask_ids, b->mask_ids) << "query " << i;
    EXPECT_EQ(a->mask_ids, c->mask_ids) << "query " << i;
  }
  // The index-less session never built anything.
  EXPECT_EQ(scan->index().num_built(), 0u);
  // MS-II has indexed everything it loaded.
  EXPECT_GT(msii->index().num_built(), 0u);
}

TEST(SessionTest, PersistenceAcrossSessions) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 8, 2, 32, 32);
  const std::string index_path = dir.file("session.chi");

  {
    SessionOptions opts = BaseOptions();
    opts.incremental = true;
    opts.index_path = index_path;
    auto session = Session::Open(store.get(), opts).ValueOrDie();
    session->Filter(SimpleQuery(100.0)).ValueOrDie();
    const size_t built = session->index().num_built();
    EXPECT_GT(built, 0u);
    MS_ASSERT_OK(session->Save());
  }

  // A new incremental session resumes with the persisted CHIs (§3.6).
  {
    SessionOptions opts = BaseOptions();
    opts.incremental = true;
    opts.index_path = index_path;
    auto session = Session::Open(store.get(), opts).ValueOrDie();
    EXPECT_GT(session->index().num_built(), 0u);
    auto r = session->Filter(SimpleQuery(100.0));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.chis_built, 0);
  }
}

TEST(SessionTest, AttachIndexModeAnswersWithoutBulkLoad) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 12, 2, 32, 32, /*seed=*/41);
  const std::string index_path = dir.file("attach.chi");
  {
    auto builder = Session::Open(store.get(), BaseOptions()).ValueOrDie();
    SessionOptions bopts = BaseOptions();
    bopts.index_path = index_path;
    auto save_session = Session::Open(store.get(), bopts).ValueOrDie();
    MS_ASSERT_OK(save_session->Save());
  }

  SessionOptions opts = BaseOptions();
  opts.index_path = index_path;
  opts.attach_index = true;
  auto lazy = Session::Open(store.get(), opts).ValueOrDie();
  EXPECT_EQ(lazy->index().num_built(), 0u);
  EXPECT_EQ(lazy->index_build_seconds(), 0.0);

  auto eager = Session::Open(store.get(), BaseOptions()).ValueOrDie();
  const FilterQuery q = SimpleQuery(100.0);
  auto a = lazy->Filter(q);
  auto b = eager->Filter(q);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->mask_ids, b->mask_ids);
  // The lazy session made CHIs resident on demand and read their bytes.
  EXPECT_GT(lazy->index().num_built(), 0u);
  EXPECT_GT(lazy->index().attached_bytes_loaded(), 0u);
}

TEST(SessionTest, AttachIndexRequiresExistingFile) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  SessionOptions opts = BaseOptions();
  opts.index_path = dir.file("missing.chi");
  opts.attach_index = true;
  EXPECT_TRUE(Session::Open(store.get(), opts).status().IsInvalidArgument());
}

TEST(SessionTest, SaveWithoutPathFails) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  auto session = Session::Open(store.get(), BaseOptions()).ValueOrDie();
  EXPECT_TRUE(session->Save().IsInvalidArgument());
}

TEST(SessionTest, AllQueryKindsRunThroughSession) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 12, 2, 32, 32);
  auto session = Session::Open(store.get(), BaseOptions()).ValueOrDie();

  ASSERT_TRUE(session->Filter(SimpleQuery(50.0)).ok());

  TopKQuery topk;
  CpTerm t;
  t.roi_source = RoiSource::kConstant;
  t.constant_roi = ROI(4, 4, 28, 28);
  t.range = ValueRange(0.7, 1.0);
  topk.terms.push_back(t);
  topk.order_expr = CpExpr::Term(0);
  topk.k = 5;
  ASSERT_TRUE(session->TopK(topk).ok());

  AggregationQuery agg;
  agg.term = t;
  agg.op = ScalarAggOp::kAvg;
  agg.k = 5;
  ASSERT_TRUE(session->Aggregate(agg).ok());

  MaskAggQuery magg;
  magg.op = MaskAggOp::kIntersectThreshold;
  magg.agg_threshold = 0.7;
  magg.term = t;
  magg.k = 5;
  auto r = session->MaskAggregate(magg);
  ASSERT_TRUE(r.ok()) << r.status();
  // The derived cache persists inside the session.
  EXPECT_GT(session->derived_cache(MaskAggOp::kIntersectThreshold, 0.7)->size(),
            0u);
}

TEST(SessionTest, OpenValidatesArguments) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  EXPECT_TRUE(Session::Open(nullptr, BaseOptions()).status().IsInvalidArgument());
  SessionOptions bad = BaseOptions();
  bad.chi.num_bins = 0;
  EXPECT_TRUE(Session::Open(store.get(), bad).status().IsInvalidArgument());
}

TEST(SessionTest, DerivedCacheKeyedByOpAndThreshold) {
  TempDir dir("sess");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  auto session = Session::Open(store.get(), BaseOptions()).ValueOrDie();
  auto* a = session->derived_cache(MaskAggOp::kIntersectThreshold, 0.7);
  auto* b = session->derived_cache(MaskAggOp::kIntersectThreshold, 0.8);
  auto* c = session->derived_cache(MaskAggOp::kUnionThreshold, 0.7);
  auto* a2 = session->derived_cache(MaskAggOp::kIntersectThreshold, 0.7);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, a2);
}

}  // namespace
}  // namespace masksearch
