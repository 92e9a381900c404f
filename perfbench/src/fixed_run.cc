// The three fixed-dataset workloads (explore_disk, verify_cpu, hot_serve).
//
// Untraced run: Catalog -> NetServer on loopback, closed-loop SQL clients
// over NetClient, end-to-end metrics. Traced run (--trace 1): the same
// request stream replayed through the stack the catalog builds, assembled
// here from the same public constructors (MaskStore::Open ->
// CachedMaskStore::Wrap -> Session::Open -> QueryService::Start) so that
// benchmark-owned timing stores can sit above and below the cache, with
// spans around the wire codec, SQL bind and QueryService::Execute calls.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "masksearch/exec/evaluator.h"
#include "perfbench.h"

namespace perfbench {

namespace {

constexpr char kDataset[] = "bench";

// ---------------------------------------------------------------------------
// Timing decorator
// ---------------------------------------------------------------------------

/// Set on io_pool threads: storage work there has no known parent request
/// and is reported as busy time rather than self time.
thread_local bool t_io_thread = false;

/// Per-layer accumulators, split by [0] request threads / [1] io_pool.
struct LayerClock {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> masks[2] = {};
  std::atomic<uint64_t> wall_ns[2] = {};
  std::atomic<uint64_t> cpu_ns[2] = {};

  uint64_t Total(const std::atomic<uint64_t> (&a)[2]) const {
    return a[0].load() + a[1].load();
  }
};

/// Forwards every virtual of MaskStore to `inner`, timing the loads.
class TimingStore final : public MaskStore {
 public:
  TimingStore(std::unique_ptr<MaskStore> inner, LayerClock* clock,
              SpanLog* spans, const char* span_name)
      : MaskStore(inner->dir(), inner->options(), inner->kind(), {}, {}),
        inner_(std::move(inner)),
        clock_(clock),
        spans_(spans),
        span_name_(span_name) {}

  int64_t num_masks() const override { return inner_->num_masks(); }
  int32_t num_shards() const override { return inner_->num_shards(); }
  const MaskMeta& meta(MaskId id) const override { return inner_->meta(id); }
  const std::vector<MaskMeta>& metas() const override {
    return inner_->metas();
  }
  uint64_t BlobSize(MaskId id) const override { return inner_->BlobSize(id); }
  uint64_t TotalDataBytes() const override { return inner_->TotalDataBytes(); }
  size_t CountResident(const std::vector<MaskId>& ids) const override {
    return inner_->CountResident(ids);
  }
  uint64_t masks_loaded() const override { return inner_->masks_loaded(); }
  uint64_t bytes_read() const override { return inner_->bytes_read(); }
  void ResetCounters() override { inner_->ResetCounters(); }

  Result<Mask> LoadMask(MaskId id) const override {
    return Timed(1, [&] { return inner_->LoadMask(id); });
  }
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override {
    return Timed(ids.size(), [&] { return inner_->LoadMaskBatch(ids); });
  }
  Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const override {
    return Timed(1, [&] { return inner_->LoadMaskRows(id, y0, y1); });
  }
  Status ReadBlob(MaskId id, std::string* out) const override {
    return Timed(0, [&] { return inner_->ReadBlob(id, out); });
  }

 private:
  template <typename F>
  auto Timed(size_t masks, F&& f) const -> decltype(f()) {
    if (!clock_->enabled.load(std::memory_order_relaxed)) return f();
    const int64_t t0 = SpanLog::NowNs();
    const double c0 = ThreadCpuSeconds();
    auto result = f();
    const double c1 = ThreadCpuSeconds();
    const int64_t t1 = SpanLog::NowNs();
    const int k = t_io_thread ? 1 : 0;
    clock_->masks[k].fetch_add(masks, std::memory_order_relaxed);
    clock_->wall_ns[k].fetch_add(static_cast<uint64_t>(t1 - t0),
                                 std::memory_order_relaxed);
    clock_->cpu_ns[k].fetch_add(static_cast<uint64_t>((c1 - c0) * 1e9),
                                std::memory_order_relaxed);
    spans_->Add(span_name_, t0, t1, spans_->NewId(), /*parent=*/0,
                /*request_id=*/0);
    return result;
  }

  std::unique_ptr<MaskStore> inner_;
  LayerClock* clock_;
  SpanLog* spans_;
  const char* span_name_;
};

/// Marks every worker of `pool` as an io_pool thread: each task blocks
/// until all have started, so each runs on a distinct worker.
void TagIoThreads(ThreadPool* pool) {
  const size_t n = pool->num_threads();
  std::atomic<size_t> arrived{0};
  std::atomic<size_t> done{0};
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&] {
      t_io_thread = true;
      arrived.fetch_add(1);
      while (arrived.load() < n) std::this_thread::yield();
      done.fetch_add(1);
    });
  }
  while (done.load() < n) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Stack configuration shared by the catalog run and the traced run
// ---------------------------------------------------------------------------

struct Device {
  std::shared_ptr<DiskThrottle> throttle;
  std::shared_ptr<BufferPool> pool;
};

Device MakeDevice(const WorkloadConfig& cfg, const Args& args,
                  uint64_t data_bytes) {
  Device d;
  const double latency = cfg.disk_latency_us + args.inject_latency_us;
  if (cfg.disk_bytes_per_sec > 0 || latency > 0) {
    d.throttle = std::make_shared<DiskThrottle>(cfg.disk_bytes_per_sec, latency,
                                                cfg.disk_queue_depth);
  }
  if (cfg.pool_fraction > 0) {
    d.pool = BufferPool::MaybeCreate(
        nullptr, static_cast<uint64_t>(cfg.pool_fraction * data_bytes), 8,
        CacheAdmission::kScanResistant);
  }
  return d;
}

MaskStore::Options StoreOptions(const WorkloadConfig& cfg, const Device& d) {
  MaskStore::Options o;
  o.throttle = d.throttle;
  // Serving I/O profile of bench_service: one modeled request per blob.
  if (cfg.disk_bytes_per_sec > 0) o.batch_max_bytes = 1;
  return o;
}

SessionOptions SessionOpts(const WorkloadConfig& cfg, const Device& d,
                           ThreadPool* io_pool) {
  SessionOptions o;
  o.chi = BenchChiConfig(cfg.side);
  o.cache = d.pool;
  o.io_pool = io_pool;
  o.filter_verify_batch = 32;
  o.agg_verify_batch = 16;
  return o;
}

QueryServiceOptions ServiceOpts(const WorkloadConfig& cfg) {
  QueryServiceOptions o;
  o.num_workers = static_cast<size_t>(cfg.clients);
  o.max_queue_depth = 64;
  return o;
}

Status WarmCache(const MaskStore& store) {
  std::vector<MaskId> chunk;
  for (MaskId id = 0; id < store.num_masks(); ++id) {
    chunk.push_back(id);
    if (chunk.size() == 256 || id + 1 == store.num_masks()) {
      MS_RETURN_NOT_OK(store.LoadMaskBatch(chunk).status());
      chunk.clear();
    }
  }
  return Status::OK();
}

/// The catalog-served stack of one run.
struct Serving {
  std::unique_ptr<ThreadPool> io_pool;
  Device device;
  std::unique_ptr<Catalog> catalog;
  Dataset* dataset = nullptr;
  std::unique_ptr<net::NetServer> server;  ///< destroyed first
};

Result<std::unique_ptr<Serving>> StartServing(const Args& args,
                                              const WorkloadConfig& cfg,
                                              const std::string& dir,
                                              uint64_t data_bytes) {
  auto s = std::make_unique<Serving>();
  if (cfg.io_pool) s->io_pool = std::make_unique<ThreadPool>(4);
  s->device = MakeDevice(cfg, args, data_bytes);
  DatasetConfig dc;
  dc.store = StoreOptions(cfg, s->device);
  dc.store.cache = s->device.pool;
  dc.session = SessionOpts(cfg, s->device, s->io_pool.get());
  dc.service = ServiceOpts(cfg);
  s->catalog = std::make_unique<Catalog>();
  MS_ASSIGN_OR_RETURN(s->dataset, s->catalog->Register(kDataset, dir, dc));
  MS_ASSIGN_OR_RETURN(s->server,
                      net::NetServer::Start(s->catalog.get(), {}));
  if (cfg.warm_cache) MS_RETURN_NOT_OK(WarmCache(s->dataset->store()));
  return s;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

struct TracedStack {
  std::unique_ptr<ThreadPool> io_pool;
  Device device;
  LayerClock above;  ///< decorator over the cache (the session's store)
  LayerClock below;  ///< decorator over the physical store
  bool has_cache = false;
  std::unique_ptr<MaskStore> store;
  std::unique_ptr<Session> session;
  std::unique_ptr<MetadataCache> metadata;
  std::unique_ptr<QueryService> service;  ///< destroyed first
};

Result<std::unique_ptr<TracedStack>> BuildTracedStack(
    const Args& args, const WorkloadConfig& cfg, const std::string& dir,
    uint64_t data_bytes, SpanLog* spans) {
  auto s = std::make_unique<TracedStack>();
  if (cfg.io_pool) {
    s->io_pool = std::make_unique<ThreadPool>(4);
    TagIoThreads(s->io_pool.get());
  }
  s->device = MakeDevice(cfg, args, data_bytes);
  MS_ASSIGN_OR_RETURN(auto physical,
                      MaskStore::Open(dir, StoreOptions(cfg, s->device)));
  std::unique_ptr<MaskStore> below = std::make_unique<TimingStore>(
      std::move(physical), &s->below, spans, "storage.load");
  if (s->device.pool) {
    s->has_cache = true;
    s->store = std::make_unique<TimingStore>(
        CachedMaskStore::Wrap(std::move(below), s->device.pool), &s->above,
        spans, "cache.load");
  } else {
    s->store = std::move(below);
  }
  MS_ASSIGN_OR_RETURN(
      s->session, Session::Open(s->store.get(),
                                SessionOpts(cfg, s->device, s->io_pool.get())));
  s->metadata =
      std::make_unique<MetadataCache>(s->store.get(), MetadataCacheOptions());
  QueryServiceOptions qopts = ServiceOpts(cfg);
  qopts.cost_estimator = [md = s->metadata.get()](const ServiceRequest& r) {
    return md->EstimateCostBytes(r);
  };
  MS_ASSIGN_OR_RETURN(s->service,
                      QueryService::Start(s->session.get(), qopts));
  if (cfg.warm_cache) MS_RETURN_NOT_OK(WarmCache(*s->store));
  return s;
}

/// Sums of one traced client (times in ns unless named otherwise).
struct TracedTotals {
  uint64_t queries = 0, one_shot = 0, executes = 0;
  uint64_t latency_ns = 0, codec_ns = 0, sql_ns = 0, bind_ns = 0;
  double queue_s = 0, exec_s = 0;
  uint64_t response_bytes = 0;
  ExecStats stats;
  std::vector<std::string> wrong;

  void Merge(const TracedTotals& o) {
    queries += o.queries;
    one_shot += o.one_shot;
    executes += o.executes;
    latency_ns += o.latency_ns;
    codec_ns += o.codec_ns;
    sql_ns += o.sql_ns;
    bind_ns += o.bind_ns;
    queue_s += o.queue_s;
    exec_s += o.exec_s;
    response_bytes += o.response_bytes;
    stats += o.stats;
    wrong.insert(wrong.end(), o.wrong.begin(), o.wrong.end());
  }
};

/// Encodes + frames `payload`, then deframes it again — both codec halves
/// of one wire hop.
Result<std::string> WireHop(const std::string& payload) {
  std::string buf = net::EncodeFrame(payload);
  std::string body;
  MS_ASSIGN_OR_RETURN(bool complete,
                      net::TakeFrame(&buf, net::kDefaultMaxFrameBytes, &body));
  if (!complete) return Status::Internal("incomplete frame");
  return body;
}

/// One traced request: the server's per-request path, minus the socket.
Status TracedRequest(const QueryItem& item,
                     const std::vector<std::unique_ptr<PreparedStatement>>& ps,
                     QueryService* service, SpanLog* spans, TracedTotals* t) {
  const uint64_t rid = spans->NewId();
  const int64_t start = SpanLog::NowNs();
  net::Request req;
  req.request_id = rid;
  if (item.prepared >= 0) {
    req.type = net::MsgType::kExecute;
    req.execute.dataset = kDataset;
    req.execute.stmt_id = static_cast<uint64_t>(item.prepared);
    req.execute.params = item.params;
  } else {
    req.type = net::MsgType::kQuery;
    req.query.dataset = kDataset;
    req.query.sqltext = item.sql;
  }
  int64_t a = SpanLog::NowNs();
  MS_ASSIGN_OR_RETURN(std::string body, WireHop(net::EncodeRequest(req)));
  MS_ASSIGN_OR_RETURN(net::Request decoded, net::DecodeRequest(body));
  int64_t b = SpanLog::NowNs();
  spans->Add("net.codec.request", a, b, spans->NewId(), rid, rid);
  t->codec_ns += static_cast<uint64_t>(b - a);

  ServiceRequest sreq;
  a = SpanLog::NowNs();
  if (decoded.type == net::MsgType::kExecute) {
    MS_ASSIGN_OR_RETURN(sreq.query,
                        ps[decoded.execute.stmt_id]->BindRequest(
                            decoded.execute.params));
    b = SpanLog::NowNs();
    spans->Add("catalog.prepared_bind", a, b, spans->NewId(), rid, rid);
    t->bind_ns += static_cast<uint64_t>(b - a);
    ++t->executes;
  } else {
    MS_ASSIGN_OR_RETURN(sql::BoundQuery bound,
                        sql::ParseAndBind(decoded.query.sqltext));
    sreq.query = RequestFromBound(bound);
    b = SpanLog::NowNs();
    spans->Add("sql.parse_bind", a, b, spans->NewId(), rid, rid);
    t->sql_ns += static_cast<uint64_t>(b - a);
    ++t->one_shot;
  }

  a = SpanLog::NowNs();
  MS_ASSIGN_OR_RETURN(QueryResponse resp, service->Execute(std::move(sreq)));
  b = SpanLog::NowNs();
  spans->Add("service.execute", a, b, spans->NewId(), rid, rid);
  t->queue_s += resp.queue_seconds;
  t->exec_s += resp.exec_seconds;
  t->stats += resp.stats();

  a = SpanLog::NowNs();
  const std::string encoded =
      net::EncodeResponse(net::QueryResultResponse(rid, resp));
  MS_ASSIGN_OR_RETURN(std::string rbody, WireHop(encoded));
  MS_ASSIGN_OR_RETURN(net::Response wire, net::DecodeResponse(rbody));
  b = SpanLog::NowNs();
  spans->Add("net.codec.response", a, b, spans->NewId(), rid, rid);
  t->codec_ns += static_cast<uint64_t>(b - a);
  t->response_bytes += net::kFrameHeaderBytes + encoded.size();

  const int64_t end = SpanLog::NowNs();
  spans->Add("request", start, end, rid, 0, rid);
  t->latency_ns += static_cast<uint64_t>(end - start);
  ++t->queries;
  if (AnswerDigest(wire.result) != item.expected && t->wrong.size() < 4) {
    t->wrong.push_back(item.sql);
  }
  return Status::OK();
}

Result<TracedTotals> RunTracedLoop(const QuerySet& qs, int clients,
                                   double seconds, TracedStack* stack,
                                   SpanLog* spans, double* wall_s) {
  std::vector<std::unique_ptr<PreparedStatement>> ps;
  for (const std::string& t : qs.templates) {
    MS_ASSIGN_OR_RETURN(auto stmt, PreparedStatement::Prepare(t));
    ps.push_back(std::move(stmt));
  }
  const size_t n = qs.items.size();
  // Warm-up pass (unmeasured, untimed by the layer clocks).
  TracedTotals warmup_totals;
  SpanLog discard;
  for (size_t j = 0; j < std::min<size_t>(n, 16); ++j) {
    MS_RETURN_NOT_OK(TracedRequest(qs.items[j], ps, stack->service.get(),
                                   &discard, &warmup_totals));
  }
  stack->above.enabled.store(true);
  stack->below.enabled.store(true);
  std::vector<TracedTotals> totals(static_cast<size_t>(clients));
  std::vector<Status> status(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t cu = static_cast<size_t>(c);
      for (size_t j = cu * n / clients;
           std::chrono::steady_clock::now() < deadline; ++j) {
        Status st = TracedRequest(qs.items[j % n], ps, stack->service.get(),
                                  spans, &totals[cu]);
        if (!st.ok()) {
          status[cu] = st;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
  stack->above.enabled.store(false);
  stack->below.enabled.store(false);
  TracedTotals all;
  for (size_t c = 0; c < totals.size(); ++c) {
    MS_RETURN_NOT_OK(status[c]);
    all.Merge(totals[c]);
  }
  return all;
}

Result<QueryResponse> ExecuteOn(Session* s, const QueryRequest& q) {
  QueryResponse r;
  r.kind = q.kind;
  switch (q.kind) {
    case QueryRequest::Kind::kFilter: {
      MS_ASSIGN_OR_RETURN(r.filter, s->Filter(q.filter));
      break;
    }
    case QueryRequest::Kind::kTopK: {
      MS_ASSIGN_OR_RETURN(r.topk, s->TopK(q.topk));
      break;
    }
    case QueryRequest::Kind::kAggregation: {
      MS_ASSIGN_OR_RETURN(r.agg, s->Aggregate(q.agg));
      break;
    }
    case QueryRequest::Kind::kMaskAgg: {
      MS_ASSIGN_OR_RETURN(r.agg, s->MaskAggregate(q.mask_agg));
      break;
    }
  }
  return r;
}

/// CP terms evaluated per targeted mask by a request's filter stage
/// (MASK_AGG terms apply to derived masks and are skipped).
std::vector<CpTerm> TermsOf(const QueryRequest& q) {
  switch (q.kind) {
    case QueryRequest::Kind::kFilter:
      return q.filter.terms;
    case QueryRequest::Kind::kTopK:
      return q.topk.terms;
    case QueryRequest::Kind::kAggregation:
      return {q.agg.term};
    case QueryRequest::Kind::kMaskAgg:
      return {};
  }
  return {};
}

/// Kernel and index throughput on the workload's own queries and masks.
struct KernelRates {
  double bounds_us_per_mask = 0;
  double cp_mpix_per_s = 0;
  double decode_mb_per_s = 0;
  double build_us_per_mask = 0;
  double speedup_vs_fullscan = 0;
};

Result<KernelRates> MeasureKernels(const Args& args, const WorkloadConfig& cfg,
                                   const std::string& dir, uint64_t data_bytes,
                                   const QuerySet& qs,
                                   const std::vector<MaskRecord>& records,
                                   const IndexManager& index) {
  KernelRates k;
  MS_ASSIGN_OR_RETURN(auto plain, MaskStore::Open(dir));
  const size_t sample = std::min<size_t>(qs.items.size(), 32);

  // ComputeCpBounds and CountPixels over each sampled query's targets.
  uint64_t evals = 0, pixels = 0;
  double bounds_s = 0, cp_s = 0;
  volatile int64_t sink = 0;  // keeps the timed kernel calls observable
  for (size_t i = 0; i < sample; ++i) {
    const QueryRequest& q = qs.items[i].request;
    const std::vector<CpTerm> terms = TermsOf(q);
    if (terms.empty()) continue;
    const std::vector<MaskId> ids = ResolveSelection(*plain, q.selection());
    Stopwatch b;
    for (MaskId id : ids) {
      const Chi* chi = index.Get(id);
      if (chi == nullptr) continue;
      for (const CpTerm& t : terms) {
        sink += ComputeCpBounds(*chi, ResolveRoi(t, plain->meta(id)), t.range)
                    .upper;
        ++evals;
      }
    }
    bounds_s += b.ElapsedSeconds();
    Stopwatch c;
    for (MaskId id : ids) {
      for (const CpTerm& t : terms) {
        const ROI roi = ResolveRoi(t, plain->meta(id))
                            .Intersect(ROI::Full(cfg.side, cfg.side));
        sink += CountPixels(records[static_cast<size_t>(id)].mask, roi,
                            t.range);
        pixels += static_cast<uint64_t>(roi.width()) * roi.height();
      }
    }
    cp_s += c.ElapsedSeconds();
  }
  k.bounds_us_per_mask = evals ? 1e6 * bounds_s / evals : 0;
  k.cp_mpix_per_s = cp_s > 0 ? pixels / 1e6 / cp_s : 0;

  // Blob decode (compressed) or copy-out (raw) of stored masks.
  const MaskId n = std::min<MaskId>(plain->num_masks(), 400);
  uint64_t decoded_bytes = 0;
  double decode_s = 0;
  for (MaskId id = 0; id < n; ++id) {
    std::string blob;
    MS_RETURN_NOT_OK(plain->ReadBlob(id, &blob));
    Stopwatch d;
    if (plain->kind() == StorageKind::kCompressed) {
      MS_ASSIGN_OR_RETURN(Mask m, DecodeMask(blob));
      decoded_bytes += m.ByteSize();
    } else {
      std::vector<float> px(blob.size() / sizeof(float));
      std::memcpy(px.data(), blob.data(), px.size() * sizeof(float));
      MS_ASSIGN_OR_RETURN(Mask m,
                          Mask::FromData(cfg.side, cfg.side, std::move(px)));
      decoded_bytes += m.ByteSize();
    }
    decode_s += d.ElapsedSeconds();
  }
  k.decode_mb_per_s = decode_s > 0 ? decoded_bytes / 1e6 / decode_s : 0;

  // CHI build per mask.
  {
    IndexManager build(static_cast<int64_t>(records.size()),
                       BenchChiConfig(cfg.side));
    Stopwatch b;
    for (MaskId id = 0; id < n; ++id) {
      build.BuildAndPut(id, records[static_cast<size_t>(id)].mask);
    }
    k.build_us_per_mask = 1e6 * b.ElapsedSeconds() / std::max<MaskId>(1, n);
  }

  // Index vs full scan: the same queries, serially, through two sessions
  // over the workload's device (no buffer pool, so neither is cached).
  {
    Device dev = MakeDevice(cfg, args, data_bytes);
    dev.pool = nullptr;
    MS_ASSIGN_OR_RETURN(auto store, MaskStore::Open(dir, StoreOptions(cfg, dev)));
    SessionOptions with_index = SessionOpts(cfg, dev, nullptr);
    SessionOptions scan = with_index;
    scan.use_index = false;
    MS_ASSIGN_OR_RETURN(auto idx_session, Session::Open(store.get(), with_index));
    MS_ASSIGN_OR_RETURN(auto scan_session, Session::Open(store.get(), scan));
    double idx_s = 0, scan_s = 0;
    for (size_t i = 0; i < std::min<size_t>(qs.items.size(), 12); ++i) {
      Stopwatch a;
      MS_RETURN_NOT_OK(ExecuteOn(idx_session.get(), qs.items[i].request).status());
      idx_s += a.ElapsedSeconds();
      Stopwatch b;
      MS_RETURN_NOT_OK(ExecuteOn(scan_session.get(), qs.items[i].request).status());
      scan_s += b.ElapsedSeconds();
    }
    k.speedup_vs_fullscan = idx_s > 0 ? scan_s / idx_s : 0;
  }
  return k;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Inputs {
  std::string dir;
  std::vector<MaskRecord> records;
  QuerySet queries;
  uint64_t data_bytes = 0;
  double space_amp = 0;
};

Result<Inputs> PrepareInputs(const Args& args, const WorkloadConfig& cfg) {
  Inputs in;
  in.dir = args.work_dir + "/" + cfg.name + "/store";
  in.records = SynthesizeMasks(cfg, args.seed, 0, cfg.images);
  MS_RETURN_NOT_OK(WriteStore(in.dir, cfg, in.records));
  MS_ASSIGN_OR_RETURN(auto store, MaskStore::Open(in.dir));
  in.data_bytes = store->TotalDataBytes();
  in.space_amp = static_cast<double>(DirectoryBytes(in.dir)) /
                 static_cast<double>(std::max<uint64_t>(1, in.data_bytes));
  if (cfg.kind == StorageKind::kCompressed) {
    // The codec quantizes pixel values: the oracle must see stored masks.
    for (MaskId id = 0; id < store->num_masks(); ++id) {
      MS_ASSIGN_OR_RETURN(in.records[static_cast<size_t>(id)].mask,
                          store->LoadMask(id));
    }
  }
  MS_ASSIGN_OR_RETURN(in.queries, GenerateQueries(cfg, args.seed, in.records));

  // Expected answers, outside every timed region, on 4 threads.
  std::vector<int32_t> identity(in.records.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<int32_t>(i);
  }
  const MemoryStore mem(&in.records, identity);
  std::vector<Status> status(4);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < in.queries.items.size(); i += 4) {
        auto digest = ReferenceDigest(mem, in.queries.items[i].request);
        if (!digest.ok()) {
          status[w] = digest.status();
          return;
        }
        in.queries.items[i].expected = *digest;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) MS_RETURN_NOT_OK(s);
  return in;
}

}  // namespace

Result<RunResult> RunFixedWorkload(const Args& args, const WorkloadConfig& cfg) {
  MS_ASSIGN_OR_RETURN(Inputs in, PrepareInputs(args, cfg));
  RunResult result;
  if (!args.trace) {
    // Only the traced run's kernel measurements need the masks in memory;
    // without them peak_rss_mb counts the serving stack, not the inputs.
    in.records = std::vector<MaskRecord>();
    TrimHeap();
    MS_RETURN_NOT_OK(ResetPeakRss());
  }

  // Set-up, repeated: every one opens the store, bulk-builds the CHIs (no
  // on-disk index is reused), registers the dataset, starts the server and
  // warms the cache. The last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Serving> serving;
  while (WantAnotherSetup(args, setup_s)) {
    serving.reset();
    Stopwatch t;
    MS_ASSIGN_OR_RETURN(serving, StartServing(args, cfg, in.dir, in.data_bytes));
    setup_s.push_back(t.ElapsedSeconds());
  }
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const CacheStats pool0 =
      serving->device.pool ? serving->device.pool->Stats() : CacheStats();
  // Every answer, warm-up included, must equal the reference.
  std::vector<std::vector<std::string>> wrong(static_cast<size_t>(cfg.clients));
  LoopHooks hooks;
  hooks.on_reply = [&](const Reply& r) {
    const QueryItem& item = in.queries.items[r.item];
    std::vector<std::string>& mine = wrong[r.client];
    if (AnswerDigest(*r.result) != item.expected && mine.size() < 4) {
      mine.push_back(item.sql);
    }
  };
  MS_ASSIGN_OR_RETURN(
      LoopResult loop,
      RunWireLoop(serving->server->port(), kDataset, in.queries, cfg.clients,
                  untraced_seconds, cfg.slices,
                  std::min<size_t>(in.queries.items.size(), 16), hooks));
  for (const auto& mine : wrong) {
    for (const std::string& sql : mine) result.Fail("wire answer differs: " + sql);
  }
  result.attempted += loop.attempted;
  result.failed += loop.failed;
  const double completed = std::max<double>(1, loop.timings.latency.count());
  auto delta = [&](const char* name) {
    return ScrapeCounter(loop.scrape_after, name) -
           ScrapeCounter(loop.scrape_before, name);
  };
  const double untraced_qps =
      loop.timings.latency.count() / std::max(1e-9, loop.wall_s);
  const double index_bytes =
      static_cast<double>(serving->dataset->session()->index().MemoryBytes());

  if (!args.trace) {
    MS_ASSIGN_OR_RETURN(const double peak_rss, PeakRssMiB());
    const LoopStats st = Summarize(loop);
    std::fprintf(stderr, "%s: %llu failed, %zu set-ups\n", cfg.name.c_str(),
                 static_cast<unsigned long long>(loop.failed), setup_s.size());
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("qps", st.qps, "queries/s");
    result.Add("p50_ms", st.p50_ms, "ms");
    result.Add("p99_ms", st.p99_ms, "ms");
    result.Add("cpu_ms_per_query", st.cpu_ms_per_query, "ms");
    result.Add("masks_read_per_query",
               (delta("ms_storage_masks_loaded_total") +
                delta("ms_cache_mask_hits_total")) /
                   completed,
               "masks");
    result.Add("index_size_ratio", index_bytes / in.data_bytes, "fraction");
    result.Add("peak_rss_mb", peak_rss, "MiB");
    result.Add("space_amp", in.space_amp, "ratio");
    serving.reset();
    MS_RETURN_NOT_OK(RemovePathRecursive(in.dir));
    return result;
  }

  // ---- Per-layer (traced) run ----
  const CacheStats pool1 =
      serving->device.pool ? serving->device.pool->Stats() : CacheStats();
  const MetadataCache::CacheStats md = serving->dataset->metadata()->stats();
  const ServiceStats svc = serving->dataset->service()->Stats();
  serving.reset();

  SpanLog spans;
  MS_ASSIGN_OR_RETURN(auto stack, BuildTracedStack(args, cfg, in.dir,
                                                   in.data_bytes, &spans));
  double traced_wall = 0;
  MS_ASSIGN_OR_RETURN(TracedTotals tt,
                      RunTracedLoop(in.queries, cfg.clients, args.seconds / 2,
                                    stack.get(), &spans, &traced_wall));
  for (const std::string& w : tt.wrong) result.Fail("traced answer differs: " + w);
  result.attempted += tt.queries;
  MS_ASSIGN_OR_RETURN(KernelRates kr,
                      MeasureKernels(args, cfg, in.dir, in.data_bytes,
                                     in.queries, in.records,
                                     stack->session->index()));
  const double q = static_cast<double>(std::max<uint64_t>(1, tt.queries));
  const LayerClock& above = stack->has_cache ? stack->above : stack->below;
  const LayerClock& below = stack->below;
  const double ms = 1e-6;  // ns -> ms
  const double client_ms = tt.latency_ns * ms / q;
  const double exec_ms = 1e3 * tt.exec_s / q;
  const double above_inline_ms = above.wall_ns[0].load() * ms / q;
  const double below_inline_ms = below.wall_ns[0].load() * ms / q;
  std::vector<LayerRow> rows = {
      {"net.codec", tt.codec_ns * ms / q, true},
      {"sql.parse_bind+prepared_bind", (tt.sql_ns + tt.bind_ns) * ms / q, true},
      {"service.queue", 1e3 * tt.queue_s / q, true},
      {"exec.self", exec_ms - above_inline_ms, true},
      {"cache.self", above_inline_ms - below_inline_ms, true},
      {"storage.self", below_inline_ms, true},
      {"cache.io_pool",
       (above.wall_ns[1].load() - below.wall_ns[1].load()) * ms / q, false},
      {"storage.io_pool", below.wall_ns[1].load() * ms / q, false},
  };
  double attributed = 0;
  for (const LayerRow& r : rows) attributed += r.in_sum ? r.self_ms : 0;
  const double traced_qps = tt.queries / std::max(1e-9, traced_wall);
  PrintLayerTable(cfg.name, client_ms, rows, traced_qps, untraced_qps);
  const std::string span_path =
      args.work_dir + "/spans-" + cfg.name + ".jsonl";
  MS_ASSIGN_OR_RETURN(size_t written, spans.WriteJsonl(span_path));
  std::fprintf(stderr, "wrote %zu spans to %s (%llu more not kept)\n",
               written, span_path.c_str(),
               static_cast<unsigned long long>(spans.dropped()));

  const double targeted =
      static_cast<double>(std::max<int64_t>(1, tt.stats.masks_targeted));
  const double above_masks =
      static_cast<double>(std::max<uint64_t>(1, above.Total(above.masks)));
  const double below_masks =
      static_cast<double>(std::max<uint64_t>(1, below.Total(below.masks)));
  const double lookups = static_cast<double>(
      (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses));
  result.Add("net.overhead_ms", loop.timings.outside.Quantile(0.5), "ms");
  result.Add("net.codec_us_per_query", tt.codec_ns * 1e-3 / q, "us");
  result.Add("net.response_bytes_per_query", tt.response_bytes / q, "bytes");
  result.Add("sql.parse_bind_us_per_query",
             tt.one_shot ? tt.sql_ns * 1e-3 / tt.one_shot : 0, "us");
  result.Add("catalog.prepared_bind_us_per_exec",
             tt.executes ? tt.bind_ns * 1e-3 / tt.executes : 0, "us");
  result.Add("catalog.metadata_cache_hits", static_cast<double>(md.hits),
             "count");
  result.Add("catalog.metadata_cache_misses", static_cast<double>(md.misses),
             "count");
  result.Add("service.queue_ms_p50",
             loop.timings.queue.Quantile(0.5), "ms");
  result.Add("service.queue_ms_p99",
             loop.timings.queue.Quantile(0.99), "ms");
  result.Add("service.exec_ms_p50",
             loop.timings.exec.Quantile(0.5), "ms");
  result.Add("service.rejected", static_cast<double>(svc.total.rejected),
             "count");
  result.Add("exec.self_ms_per_query", exec_ms - above_inline_ms, "ms");
  result.Add("exec.fml", tt.stats.FML(), "fraction");
  result.Add("exec.pruned_ratio", tt.stats.pruned / targeted, "fraction");
  result.Add("exec.accepted_ratio", tt.stats.accepted_by_bounds / targeted,
             "fraction");
  result.Add("exec.candidate_ratio", tt.stats.candidates / targeted,
             "fraction");
  result.Add("exec.prefetch_skipped_per_query", tt.stats.prefetch_skipped / q,
             "count");
  result.Add("exec.speedup_vs_fullscan", kr.speedup_vs_fullscan, "x");
  result.Add("index.bounds_us_per_mask", kr.bounds_us_per_mask, "us");
  result.Add("index.chi_bytes_per_mask",
             index_bytes / std::max<size_t>(1, in.records.size()), "bytes");
  result.Add("index.build_us_per_mask", kr.build_us_per_mask, "us");
  result.Add("cache.hit_ratio",
             lookups > 0 ? (pool1.hits - pool0.hits) / lookups : 0,
             "fraction");
  result.Add("cache.evictions_per_query",
             (pool1.evictions - pool0.evictions) / completed, "count");
  result.Add("cache.self_us_per_load",
             stack->has_cache
                 ? (above.Total(above.wall_ns) / above_masks -
                    below.Total(below.wall_ns) / above_masks) * 1e-3
                 : 0,
             "us");
  result.Add("storage.load_us_per_mask",
             below.Total(below.wall_ns) * 1e-3 / below_masks, "us");
  result.Add("storage.decode_mb_per_s", kr.decode_mb_per_s, "MB/s");
  result.Add("storage.wait_ms_per_query",
             (static_cast<double>(below.Total(below.wall_ns)) -
              static_cast<double>(below.Total(below.cpu_ns))) * ms / q,
             "ms");
  result.Add("storage.read_ops_per_query",
             delta("ms_storage_read_ops_total") / completed, "count");
  result.Add("storage.bytes_per_query",
             delta("ms_storage_read_bytes_total") / completed, "bytes");
  result.Add("kernels.cp_mpix_per_s", kr.cp_mpix_per_s, "Mpix/s");
  // The write path and maintenance run only in live_ingest.
  result.Add("ingest.masks_per_s", 0, "masks/s");
  result.Add("ingest.publish_p50_ms", 0, "ms");
  result.Add("ingest.publish_p90_ms", 0, "ms");
  result.Add("ingest.append_us_per_mask", 0, "us");
  result.Add("ingest.bytes_written_per_user_byte", 0, "ratio");
  result.Add("maintain.compact_s_per_run", 0, "s");
  result.Add("maintain.bytes_rewritten_per_reclaimed", 0, "ratio");
  result.Add("maintain.compactions", 0, "count");
  result.Add("trace.unattributed_share",
             client_ms > 0 ? (client_ms - attributed) / client_ms : 0,
             "fraction");
  result.Add("trace.overhead_pct",
             untraced_qps > 0 ? 100 * (1 - traced_qps / untraced_qps) : 0,
             "%");
  stack.reset();
  MS_RETURN_NOT_OK(RemovePathRecursive(in.dir));
  return result;
}

}  // namespace perfbench
