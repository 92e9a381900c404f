// The live_ingest workload: one writer thread ingests, deletes, publishes
// and compacts a Catalog::RegisterLive dataset while query clients run
// closed loops over the wire. Every response must equal the reference
// answer at one of the epochs published while the request was in flight;
// afterwards the directory is reopened in a fresh catalog and must show
// exactly the published masks.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <tuple>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr char kDataset[] = "bench";
/// Writer cadence: every epoch appends kAppendImages images, deletes
/// kDeletes live masks and publishes; every kCompactEvery epochs it
/// compacts (12 compactions in a 25 s run). A delete rotates the
/// ingestor's CHI cache, so the first queries of every epoch rebuild CHIs
/// and run several times slower than the rest. 1 s epochs keep them a few
/// per thousand queries, below the 2% overview queries among which p99
/// falls (see OverviewSpec in queries.cc).
constexpr int64_t kAppendImages = 80;
constexpr int kDeletes = 40;
constexpr int kCompactEvery = 2;
constexpr double kEpochSeconds = 1.0;
/// With --trace 1, tracing flips on and off every kTraceFlipSeconds, so
/// traced and untraced requests see the same (growing) dataset.
constexpr double kTraceFlipSeconds = 0.25;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The writer's view of the store: physical ids of the current generation
/// (record index + tombstone flag), and the visible list of every epoch.
/// Record index i is mask i of SynthesizeMasks(cfg, seed, 0, ...): the
/// writer appends images in order.
struct LiveModel {
  std::vector<int32_t> phys;
  std::vector<bool> dead;
  std::mutex mu;
  std::map<int64_t, std::vector<int32_t>> epochs;

  std::vector<int32_t> Visible() const {
    std::vector<int32_t> v;
    for (size_t i = 0; i < phys.size(); ++i) {
      if (!dead[i]) v.push_back(phys[i]);
    }
    return v;
  }
  void Record(int64_t epoch) {
    std::vector<int32_t> v = Visible();
    std::lock_guard<std::mutex> lock(mu);
    epochs[epoch] = std::move(v);
  }
  /// Recorded epoch in force at `epoch` (the latest at or before it).
  int64_t Resolve(int64_t epoch) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = epochs.upper_bound(epoch);
    return it == epochs.begin() ? epochs.begin()->first : std::prev(it)->first;
  }
};

struct WriterStats {
  int64_t appended = 0;
  /// Per epoch: masks appended ÷ time inside its Ingest + Publish calls.
  std::vector<double> epoch_rates;
  std::vector<double> append_us;
  std::vector<double> publish_ms;
  std::vector<double> compact_s;
  /// Manifest + tombstone sidecar bytes rewritten by publishes.
  uint64_t metadata_bytes_written = 0;
  Status status;
};

struct LiveServing {
  std::unique_ptr<Catalog> catalog;
  Dataset* dataset = nullptr;
  std::unique_ptr<net::NetServer> server;  ///< destroyed first
};

LiveDatasetConfig LiveConfig(const WorkloadConfig& cfg, const Args& args) {
  LiveDatasetConfig lc;
  lc.ingest.kind = cfg.kind;
  lc.ingest.chi = BenchChiConfig(cfg.side);
  lc.ingest.build_chi_on_ingest = true;
  lc.ingest.cache_budget_bytes = 64u << 20;
  lc.ingest.session.chi = lc.ingest.chi;
  if (args.inject_latency_us > 0) {
    lc.ingest.store.throttle =
        std::make_shared<DiskThrottle>(0, args.inject_latency_us,
                                       cfg.disk_queue_depth);
  }
  lc.service.num_workers = static_cast<size_t>(cfg.clients);
  lc.service.max_queue_depth = 64;
  return lc;
}

/// Registers the live dataset at `dir`, ingests the seed masks, publishes
/// and starts the server.
Result<std::unique_ptr<LiveServing>> StartLive(
    const Args& args, const WorkloadConfig& cfg, const std::string& dir,
    const std::vector<MaskRecord>& seed_masks) {
  auto s = std::make_unique<LiveServing>();
  s->catalog = std::make_unique<Catalog>();
  MS_ASSIGN_OR_RETURN(s->dataset,
                      s->catalog->RegisterLive(kDataset, dir,
                                               LiveConfig(cfg, args)));
  for (const MaskRecord& rec : seed_masks) {
    MS_RETURN_NOT_OK(s->dataset->Ingest(rec.meta, rec.mask).status());
  }
  MS_RETURN_NOT_OK(s->dataset->Publish());
  MS_ASSIGN_OR_RETURN(s->server, net::NetServer::Start(s->catalog.get(), {}));
  return s;
}

/// Bytes of the current generation's manifest and tombstone sidecar.
uint64_t MetadataBytes(const std::string& dir) {
  auto gen = ReadStoreGeneration(dir);
  if (!gen.ok()) return 0;
  const std::string root = GenerationDir(dir, *gen);
  uint64_t total = 0;
  for (const std::string& p :
       {MaskStoreManifestPath(root), MaskStoreTombstonePath(root)}) {
    auto size = FileSize(p);
    if (size.ok()) total += *size;
  }
  return total;
}

/// Appends, deletes, publishes and compacts until `deadline`. Appended
/// masks are synthesized an epoch at a time, so the process never holds the
/// whole input.
void Writer(Dataset* ds, const WorkloadConfig& cfg, uint64_t seed,
            LiveModel* model, Clock::time_point deadline, SpanLog* spans,
            const std::atomic<bool>* tracing, WriterStats* out) {
  Rng rng(seed * 31 + 7);
  auto span = [&](const char* name, int64_t a, int64_t b) {
    if (tracing->load()) spans->Add(name, a, b, spans->NewId(), 0, 0);
  };
  auto fail = [&](const Status& st) { out->status = st; };
  for (int epoch = 1; Clock::now() < deadline; ++epoch) {
    const Clock::time_point start = Clock::now();
    const std::vector<MaskRecord> batch = SynthesizeMasks(
        cfg, seed, cfg.images + out->appended / cfg.models, kAppendImages);
    const size_t published = model->phys.size();
    double busy_s = 0;
    for (const MaskRecord& rec : batch) {
      const int64_t a = SpanLog::NowNs();
      auto id = ds->Ingest(rec.meta, rec.mask);
      const int64_t b = SpanLog::NowNs();
      if (!id.ok()) return fail(id.status());
      span("dataset.ingest", a, b);
      out->append_us.push_back((b - a) * 1e-3);
      busy_s += (b - a) * 1e-9;
      model->phys.push_back(
          static_cast<int32_t>(cfg.images * cfg.models + out->appended));
      model->dead.push_back(false);
      ++out->appended;
    }
    for (int d = 0; d < kDeletes; ++d) {
      // Delete a live mask that was already published.
      std::vector<size_t> live;
      for (size_t i = 0; i < published; ++i) {
        if (!model->dead[i]) live.push_back(i);
      }
      if (live.empty()) break;
      const size_t victim = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      const int64_t a = SpanLog::NowNs();
      Status st = ds->Delete(static_cast<MaskId>(victim));
      span("dataset.delete", a, SpanLog::NowNs());
      if (!st.ok()) return fail(st);
      model->dead[victim] = true;
    }
    const int64_t a = SpanLog::NowNs();
    Status st = ds->Publish();
    const int64_t b = SpanLog::NowNs();
    if (!st.ok()) return fail(st);
    span("dataset.publish", a, b);
    out->publish_ms.push_back((b - a) * 1e-6);
    busy_s += (b - a) * 1e-9;
    out->epoch_rates.push_back(static_cast<double>(batch.size()) / busy_s);
    model->Record(ds->epoch());
    out->metadata_bytes_written += MetadataBytes(ds->dir());
    if (epoch % kCompactEvery == 0) {
      const int64_t c0 = SpanLog::NowNs();
      st = ds->Compact();
      const int64_t c1 = SpanLog::NowNs();
      if (!st.ok()) return fail(st);
      span("dataset.compact", c0, c1);
      out->compact_s.push_back((c1 - c0) * 1e-9);
      // Survivors are renumbered densely, in order.
      model->phys = model->Visible();
      model->dead.assign(model->phys.size(), false);
      model->Record(ds->epoch());
    }
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kEpochSeconds)));
  }
}

struct LiveResponse {
  uint32_t item = 0;
  int64_t epoch_before = 0;
  int64_t epoch_after = 0;
  uint64_t digest = 0;

  bool operator<(const LiveResponse& o) const {
    return std::tie(item, epoch_before, epoch_after, digest) <
           std::tie(o.item, o.epoch_before, o.epoch_after, o.digest);
  }
};

/// What one query client saw, kept apart per client thread. Responses are
/// kept once per distinct (query, epochs, answer): their number is bounded
/// by queries x epochs, not by the request rate, so peak_rss_mb does not
/// track qps.
struct LiveClientLog {
  std::set<LiveResponse> responses;
  uint64_t traced = 0, untraced = 0;
};

/// Checks every response against the reference at the epochs it could
/// have been admitted at; memoizes (query, epoch) answers.
void ValidateResponses(const std::vector<MaskRecord>& records,
                       const QuerySet& qs, LiveModel* model,
                       const std::vector<LiveResponse>& responses,
                       RunResult* result) {
  // Candidate epochs per response: the one in force when it was sent plus
  // every epoch recorded until it returned, and one more: a publish makes
  // its snapshot current before Dataset::epoch() advances, so a query can
  // be answered at epoch_after + 1 while the counter still reads
  // epoch_after. The next publish waits for this one to return, so never
  // at epoch_after + 2.
  auto candidates = [&](const LiveResponse& r) {
    std::vector<int64_t> out = {model->Resolve(r.epoch_before)};
    for (auto it = model->epochs.upper_bound(r.epoch_before);
         it != model->epochs.end() && it->first <= r.epoch_after + 1; ++it) {
      out.push_back(it->first);
    }
    return out;
  };
  std::set<std::pair<uint32_t, int64_t>> needed;
  for (const LiveResponse& r : responses) {
    for (int64_t e : candidates(r)) needed.insert({r.item, e});
  }
  std::vector<std::pair<uint32_t, int64_t>> work(needed.begin(), needed.end());
  std::vector<uint64_t> digests(work.size());
  std::vector<Status> status(4);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < work.size(); i += 4) {
        const MemoryStore store(&records, model->epochs.at(work[i].second));
        auto digest = ReferenceDigest(store, qs.items[work[i].first].request);
        if (!digest.ok()) {
          status[w] = digest.status();
          return;
        }
        digests[i] = *digest;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) {
    if (!s.ok()) result->Fail("reference evaluation failed: " + s.ToString());
  }
  std::map<std::pair<uint32_t, int64_t>, uint64_t> memo;
  for (size_t i = 0; i < work.size(); ++i) memo[work[i]] = digests[i];
  uint64_t mismatches = 0;
  for (const LiveResponse& r : responses) {
    bool ok = false;
    for (int64_t e : candidates(r)) ok = ok || memo[{r.item, e}] == r.digest;
    if (!ok && ++mismatches <= 4) {
      result->Fail("live answer matches no epoch in [" +
                   std::to_string(r.epoch_before) + ", " +
                   std::to_string(r.epoch_after) +
                   "]: " + qs.items[r.item].sql);
    }
  }
  std::fprintf(stderr, "live oracle: %zu distinct responses, %zu (query, epoch) "
               "references, %llu mismatches\n",
               responses.size(), work.size(),
               static_cast<unsigned long long>(mismatches));
}

/// Reopens `dir` in a fresh catalog: exactly the masks of the last
/// published epoch must be visible, in order, with their pixels. The count
/// and the per-position identities together mean that every acknowledged
/// delete is absent.
void CheckDurability(const Args& args, const WorkloadConfig& cfg,
                     const std::string& dir,
                     const std::vector<MaskRecord>& records,
                     const std::vector<int32_t>& expected, RunResult* result) {
  Catalog catalog;
  auto ds = catalog.RegisterLive(kDataset, dir, LiveConfig(cfg, args));
  if (!ds.ok()) {
    return result->Fail("durability: reopen failed: " + ds.status().ToString());
  }
  std::shared_ptr<const Snapshot> snap = (*ds)->snapshot();
  const MaskStore& store = snap->store();
  if (store.num_masks() != static_cast<int64_t>(expected.size())) {
    return result->Fail("durability: " + std::to_string(store.num_masks()) +
                         " visible masks after reopen, expected " +
                         std::to_string(expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const MaskMeta& got = store.meta(static_cast<MaskId>(i));
    const MaskMeta& want = records[static_cast<size_t>(expected[i])].meta;
    if (got.image_id != want.image_id || got.model_id != want.model_id) {
      return result->Fail("durability: visible mask " + std::to_string(i) +
                          " is not the published one");
    }
    if (i % 97 == 0) {
      auto m = store.LoadMask(static_cast<MaskId>(i));
      if (!m.ok() ||
          m->data() != records[static_cast<size_t>(expected[i])].mask.data()) {
        return result->Fail("durability: pixels of mask " + std::to_string(i) +
                            " differ after reopen");
      }
    }
  }
}

}  // namespace

Result<RunResult> RunLiveWorkload(const Args& args, const WorkloadConfig& cfg) {
  RunResult result;
  const std::string root = args.work_dir + "/" + cfg.name;
  MS_ASSIGN_OR_RETURN(QuerySet qs, GenerateQueries(cfg, args.seed, {}));

  // Set-up, repeated in fresh directories: registration, ingest of the seed
  // masks with CHI-on-ingest, first publish, server start.
  std::vector<double> setup_s;
  std::unique_ptr<LiveServing> serving;
  std::string dir;
  {
    const std::vector<MaskRecord> seed_masks =
        SynthesizeMasks(cfg, args.seed, 0, cfg.images);
    while (WantAnotherSetup(args, setup_s)) {
      serving.reset();
      if (!dir.empty()) MS_RETURN_NOT_OK(RemovePathRecursive(dir));
      dir = root + "/store-" + std::to_string(setup_s.size());
      MS_RETURN_NOT_OK(RemovePathRecursive(dir));
      const Clock::time_point t0 = Clock::now();
      MS_ASSIGN_OR_RETURN(serving, StartLive(args, cfg, dir, seed_masks));
      setup_s.push_back(MsSince(t0) / 1e3);
    }
  }
  if (!args.trace) {
    // peak_rss_mb covers serving from here on, not the set-up inputs.
    TrimHeap();
    MS_RETURN_NOT_OK(ResetPeakRss());
  }
  Dataset* ds = serving->dataset;
  const size_t initial = static_cast<size_t>(cfg.images * cfg.models);
  LiveModel model;
  for (size_t i = 0; i < initial; ++i) {
    model.phys.push_back(static_cast<int32_t>(i));
    model.dead.push_back(false);
  }
  model.Record(ds->epoch());

  // Measured window: writer + query clients. Every response is logged with
  // the epochs in force when it was sent and when it returned.
  SpanLog spans;
  std::atomic<bool> tracing{false};
  double traced_s = 0, untraced_s = 0;
  WriterStats ws;
  std::thread writer;
  std::vector<LiveClientLog> logs(static_cast<size_t>(cfg.clients));
  LoopHooks hooks;
  hooks.before = [ds] { return ds->epoch(); };
  hooks.on_reply = [&](const Reply& r) {
    LiveClientLog& log = logs[r.client];
    log.responses.insert({static_cast<uint32_t>(r.item), r.tag, ds->epoch(),
                          AnswerDigest(*r.result)});
    if (!r.measured) return;
    if (tracing.load()) {
      spans.Add("client.query", r.start_ns, r.end_ns, spans.NewId(), 0, 0);
      ++log.traced;
    } else {
      ++log.untraced;
    }
  };
  hooks.on_open = [&] {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    writer = std::thread(Writer, ds, std::cref(cfg), args.seed, &model,
                         deadline, &spans, &tracing, &ws);
  };
  if (args.trace) {
    hooks.tick_s = kTraceFlipSeconds;
    hooks.on_tick = [&] {
      (tracing.load() ? traced_s : untraced_s) += kTraceFlipSeconds;
      tracing.store(!tracing.load());
    };
  }
  Result<LoopResult> ran =
      RunWireLoop(serving->server->port(), kDataset, qs, cfg.clients,
                  args.seconds, cfg.slices,
                  std::min<size_t>(qs.items.size(), 16), hooks);
  if (writer.joinable()) writer.join();
  MS_RETURN_NOT_OK(ran.status());
  MS_RETURN_NOT_OK(ws.status);
  const LoopResult& loop = *ran;
  double peak_rss = 0;
  if (!args.trace) {
    MS_ASSIGN_OR_RETURN(peak_rss, PeakRssMiB());
  }
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  std::vector<LiveResponse> responses;
  uint64_t traced_n = 0, untraced_n = 0;
  for (const LiveClientLog& log : logs) {
    responses.insert(responses.end(), log.responses.begin(),
                     log.responses.end());
    traced_n += log.traced;
    untraced_n += log.untraced;
  }
  const Timings& timings = loop.timings;
  const MaintenanceStats maint = ds->maintenance()->Stats();
  const MaintenanceCounters counters = ds->maintenance()->compactor()->Counters();
  const ServiceStats svc = ds->service()->Stats();
  const std::vector<int32_t> final_visible = model.Visible();
  serving.reset();  // drains pinned snapshots; retired generations vanish

  // The oracle's inputs: every mask the run ingested, in record order.
  const std::vector<MaskRecord> records = SynthesizeMasks(
      cfg, args.seed, 0, cfg.images + ws.appended / cfg.models);

  uint64_t live_bytes = 0;
  for (int32_t i : final_visible) {
    live_bytes += records[static_cast<size_t>(i)].mask.ByteSize();
  }
  const double space_amp = static_cast<double>(DirectoryBytes(dir)) /
                           static_cast<double>(std::max<uint64_t>(1, live_bytes));

  Stopwatch validation;
  ValidateResponses(records, qs, &model, responses, &result);
  std::fprintf(stderr, "live oracle took %.2f s\n", validation.ElapsedSeconds());
  CheckDurability(args, cfg, dir, records, final_visible, &result);
  if (maint.dead_bytes_reclaimed_total == 0) {
    result.Fail("no compaction reclaimed dead bytes");
  }
  std::fprintf(stderr,
               "%s: %llu queries over %.2f s, %lld masks appended, %zu "
               "publishes (slowest %.1f ms), %zu compactions (slowest %.2f s, "
               "%llu dead bytes reclaimed)\n",
               cfg.name.c_str(),
               static_cast<unsigned long long>(timings.latency.count()),
               loop.wall_s,
               static_cast<long long>(ws.appended), ws.publish_ms.size(),
               Quantile(ws.publish_ms, 1.0), ws.compact_s.size(),
               Quantile(ws.compact_s, 1.0),
               static_cast<unsigned long long>(maint.dead_bytes_reclaimed_total));

  const double completed = std::max<double>(1, timings.latency.count());
  auto delta = [&](const char* name) {
    return ScrapeCounter(loop.scrape_after, name) -
           ScrapeCounter(loop.scrape_before, name);
  };
  // CHI bytes of the final live set, from the ingest-time builder config.
  IndexManager index(static_cast<int64_t>(final_visible.size()),
                     BenchChiConfig(cfg.side));
  for (size_t i = 0; i < final_visible.size(); ++i) {
    index.BuildAndPut(static_cast<MaskId>(i),
                      records[static_cast<size_t>(final_visible[i])].mask);
  }
  const double chi_bytes = static_cast<double>(index.MemoryBytes());
  MS_RETURN_NOT_OK(RemovePathRecursive(dir));

  if (!args.trace) {
    const LoopStats st = Summarize(loop);
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
    result.Add("index_size_ratio", chi_bytes / std::max<uint64_t>(1, live_bytes),
               "fraction");
    result.Add("peak_rss_mb", peak_rss, "MiB");
    result.Add("space_amp", space_amp, "ratio");
    return result;
  }

  // ---- Per-layer metrics: spans stop at the Dataset calls and the client
  // query calls, so the table splits client latency by the wire response's
  // own queue / exec timings.
  const double q = completed;
  const double untraced_qps = untraced_n / std::max(1e-9, untraced_s);
  const double traced_qps = traced_n / std::max(1e-9, traced_s);
  PrintLayerTable(cfg.name, timings.latency.sum_ms() / q,
                  {{"net+sql (client - queue - exec)",
                    timings.outside.sum_ms() / q, true},
                   {"service.queue", timings.queue.sum_ms() / q, true},
                   {"service.exec", timings.exec.sum_ms() / q, true}},
                  traced_qps, untraced_qps);
  const std::string span_path = args.work_dir + "/spans-" + cfg.name + ".jsonl";
  MS_ASSIGN_OR_RETURN(size_t written, spans.WriteJsonl(span_path));
  std::fprintf(stderr, "wrote %zu spans to %s (%llu more not kept)\n",
               written, span_path.c_str(),
               static_cast<unsigned long long>(spans.dropped()));

  double compact_sum = 0;
  for (double v : ws.compact_s) compact_sum += v;
  const double user_bytes =
      static_cast<double>(ws.appended) * cfg.side * cfg.side * sizeof(float);
  auto zero = [&](const char* name, const char* unit) {
    result.Add(name, 0, unit);
  };
  result.Add("net.overhead_ms", timings.outside.Quantile(0.5), "ms");
  zero("net.codec_us_per_query", "us");
  zero("net.response_bytes_per_query", "bytes");
  zero("sql.parse_bind_us_per_query", "us");
  zero("catalog.prepared_bind_us_per_exec", "us");
  zero("catalog.metadata_cache_hits", "count");
  zero("catalog.metadata_cache_misses", "count");
  result.Add("service.queue_ms_p50", timings.queue.Quantile(0.5), "ms");
  result.Add("service.queue_ms_p99", timings.queue.Quantile(0.99), "ms");
  result.Add("service.exec_ms_p50", timings.exec.Quantile(0.5), "ms");
  result.Add("service.rejected", static_cast<double>(svc.total.rejected),
             "count");
  zero("exec.self_ms_per_query", "ms");
  zero("exec.fml", "fraction");
  zero("exec.pruned_ratio", "fraction");
  zero("exec.accepted_ratio", "fraction");
  zero("exec.candidate_ratio", "fraction");
  zero("exec.prefetch_skipped_per_query", "count");
  zero("exec.speedup_vs_fullscan", "x");
  zero("index.bounds_us_per_mask", "us");
  result.Add("index.chi_bytes_per_mask",
             chi_bytes / std::max<size_t>(1, final_visible.size()), "bytes");
  zero("index.build_us_per_mask", "us");
  zero("cache.hit_ratio", "fraction");
  zero("cache.evictions_per_query", "count");
  zero("cache.self_us_per_load", "us");
  zero("storage.load_us_per_mask", "us");
  zero("storage.decode_mb_per_s", "MB/s");
  zero("storage.wait_ms_per_query", "ms");
  result.Add("storage.read_ops_per_query",
             delta("ms_storage_read_ops_total") / q, "count");
  result.Add("storage.bytes_per_query",
             delta("ms_storage_read_bytes_total") / q, "bytes");
  zero("kernels.cp_mpix_per_s", "Mpix/s");
  result.Add("ingest.masks_per_s", Median(ws.epoch_rates), "masks/s");
  result.Add("ingest.publish_p50_ms", Quantile(ws.publish_ms, 0.5), "ms");
  result.Add("ingest.publish_p90_ms", Quantile(ws.publish_ms, 0.9), "ms");
  result.Add("ingest.append_us_per_mask", Median(ws.append_us), "us");
  result.Add("ingest.bytes_written_per_user_byte",
             (user_bytes + static_cast<double>(ws.metadata_bytes_written +
                                               counters.bytes_copied_total)) /
                 std::max(1.0, user_bytes),
             "ratio");
  result.Add("maintain.compact_s_per_run",
             ws.compact_s.empty() ? 0 : compact_sum / ws.compact_s.size(), "s");
  result.Add("maintain.bytes_rewritten_per_reclaimed",
             static_cast<double>(counters.bytes_copied_total) /
                 std::max<uint64_t>(1, counters.dead_bytes_reclaimed_total),
             "ratio");
  result.Add("maintain.compactions", static_cast<double>(ws.compact_s.size()),
             "count");
  result.Add("trace.unattributed_share", 0, "fraction");
  result.Add("trace.overhead_pct",
             untraced_qps > 0 ? 100 * (1 - traced_qps / untraced_qps) : 0, "%");
  return result;
}

}  // namespace perfbench
