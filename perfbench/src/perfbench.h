// Shared declarations of the MaskSearch serving benchmark (perfbench).
//
// One binary, four closed-loop workloads. Every workload synthesizes its
// dataset and query stream from --seed, stands up the real serving stack
// (Catalog -> NetServer on loopback), drives it with SQL text over
// NetClient from at most four client threads, checks every response against
// a ReferenceEvaluator oracle, and prints one JSON result line. With
// --trace 1 the run instead reports per-layer metrics, timed from
// benchmark-owned code around the layers' public entry points.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "masksearch/masksearch.h"

namespace perfbench {

using namespace masksearch;  // NOLINT: benchmark-local convenience

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Work directory for stores and span dumps.
  std::string work_dir = ".bench_build/work";
  /// Sensitivity self-check knob: a latency-only DiskThrottle (µs per
  /// modeled request) added to every workload's store. 0 = off.
  double inject_latency_us = 0;
};

/// Independent set-ups per run: at least kMinSetups, more while they stay
/// cheap (up to kMaxSetups or kSetupBudgetSeconds in all); setup_s is their
/// median. Traced runs set up once.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 11;
constexpr double kSetupBudgetSeconds = 2.5;

/// \brief True while another set-up should run, given those done so far.
bool WantAnotherSetup(const Args& args, const std::vector<double>& done);

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

enum class QueryMix {
  kExploration,  ///< Fig. 11 / §4.5 mix: 50% filter, 25% top-k, 15% agg, 10% MASK_AGG
  kVerify,       ///< filter / top-k / agg with thresholds near CHI bin edges
  kHot,          ///< selective, mostly bound-decided filter + top-k
  kLive,         ///< filter + top-k over the growing live dataset
};

struct WorkloadConfig {
  std::string name;
  int32_t side = 40;  ///< masks are side x side
  int64_t images = 1000;
  int32_t models = 2;
  StorageKind kind = StorageKind::kRawFloat32;
  QueryMix mix = QueryMix::kExploration;
  int clients = 4;
  /// Distinct queries per seed: enough that a run's mix is the whole
  /// population, not a seed-dependent sample of a few.
  size_t distinct_queries = 2048;
  /// Modeled serving device (0 bandwidth and latency = unthrottled).
  double disk_bytes_per_sec = 0;
  double disk_latency_us = 0;
  int disk_queue_depth = 16;
  /// Buffer pool budget as a multiple of the stored bytes (0 = none).
  double pool_fraction = 0;
  bool warm_cache = false;
  bool io_pool = false;
  /// Fraction of requests sent as prepared-statement EXECUTEs.
  double prepared_fraction = 0;
  /// Equal slices of the measured window; the closed-loop figures are
  /// slice medians. Each slice of a 25 s window completes over 1000
  /// queries, so at least 10 lie beyond its p99.
  size_t slices = 3;
};

/// \brief The four workloads; null-free lookup, typed error on a bad name.
Result<WorkloadConfig> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// \brief CHI configuration of the paper (§4.1): cell = side / 8, 16 bins.
ChiConfig BenchChiConfig(int32_t side);

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

struct MaskRecord {
  MaskMeta meta;
  Mask mask;
};

/// \brief Deterministic synthetic saliency masks for images
/// [first_image, first_image + images), `cfg.models` masks per image.
std::vector<MaskRecord> SynthesizeMasks(const WorkloadConfig& cfg,
                                        uint64_t seed, int64_t first_image,
                                        int64_t images);

/// \brief Writes `records` into a fresh store at `dir` (MaskStoreWriter).
Status WriteStore(const std::string& dir, const WorkloadConfig& cfg,
                  const std::vector<MaskRecord>& records);

/// \brief Bytes of every regular file under `dir`, recursively.
uint64_t DirectoryBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// Queries and the correctness oracle
// ---------------------------------------------------------------------------

/// \brief Exact digest (FNV-1a) of a query result in wire shape: its kind,
/// mask ids and (id-or-group, value) pairs. Values are CP counts or means of
/// CP counts, which server and reference compute identically, so equal
/// digests mean equal answers.
uint64_t AnswerDigest(const net::WireQueryResult& r);

struct QueryItem {
  std::string sql;     ///< one-shot text (always set)
  int prepared = -1;   ///< template index when sent as EXECUTE, else -1
  std::vector<double> params;
  QueryRequest request;  ///< the bound request (oracle + traced run)
  uint64_t expected = 0;  ///< AnswerDigest of the reference (fixed datasets)
};

struct QuerySet {
  std::vector<std::string> templates;  ///< prepared-statement SQL
  std::vector<QueryItem> items;
};

/// \brief Generates and binds the workload's distinct queries. `records`
/// (the dataset, in mask-id order) let the verify and hot mixes place
/// count thresholds inside the data's CP distribution.
Result<QuerySet> GenerateQueries(const WorkloadConfig& cfg, uint64_t seed,
                                 const std::vector<MaskRecord>& records);

/// \brief A read-only in-memory MaskStore over a list of records — the
/// catalog the ReferenceEvaluator resolves selections against. Visible ids
/// are positions in `order`.
class MemoryStore final : public MaskStore {
 public:
  MemoryStore(const std::vector<MaskRecord>* records,
              std::vector<int32_t> order);
  int32_t num_shards() const override { return 1; }
  Result<Mask> LoadMask(MaskId id) const override;
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override;
  Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const override;
  Status ReadBlob(MaskId id, std::string* out) const override;

 private:
  const std::vector<MaskRecord>* records_;
  std::vector<int32_t> order_;
};

/// \brief AnswerDigest of the ReferenceEvaluator's answer to `request`
/// over `store` (loads via `store`).
Result<uint64_t> ReferenceDigest(const MaskStore& store,
                                 const QueryRequest& request);

// ---------------------------------------------------------------------------
// Result ledger and reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few wrong-answer reports

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why);
};

/// \brief Prints the human-readable summary (stderr) and the final JSON
/// line (stdout).
void PrintResult(const RunResult& r);

/// \brief Quantile q in [0, 1] (linear interpolation) of unsorted values.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// \brief Latency histogram of fixed size: log buckets 0.2% wide from 1 us
/// to about a minute. Recording a request costs no memory that grows with
/// the request rate, so peak_rss_mb does not track qps. Quantiles are
/// exact to the bucket width; the sum is exact.
class Histogram {
 public:
  Histogram();
  void Add(double ms);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  /// Quantile q in [0, 1]: the geometric middle of the bucket holding it.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ms_ = 0;
};

/// \brief Per-request timings of the measured, successful requests.
struct Timings {
  Histogram latency;  ///< client-observed: SQL text sent to response decoded
  Histogram queue;    ///< server-side queue wait (from the wire response)
  Histogram exec;     ///< server-side execution time
  Histogram outside;  ///< latency - queue - exec: socket, codec, SQL bind

  void Add(double latency_ms, double queue_ms, double exec_ms);
  void Merge(const Timings& other);
};

struct LoopResult;

/// \brief Closed-loop figures: each is the median, over the equal slices
/// of the measured window (WorkloadConfig::slices), of that slice's figure.
/// The median keeps a burst of host noise that covers a minority of the
/// slices from moving the result.
struct LoopStats {
  double qps = 0;  ///< queries completed in the slice / slice seconds
  double p50_ms = 0;
  double p99_ms = 0;
  double cpu_ms_per_query = 0;  ///< process CPU ms / completed queries
};

LoopStats Summarize(const LoopResult& loop);

/// \brief Process user+sys CPU seconds so far (getrusage).
double ProcessCpuSeconds();
/// \brief CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// \brief Resets the process's peak resident set size to its current size
/// (Linux /proc/self/clear_refs), so PeakRssMiB() covers only what follows.
Status ResetPeakRss();
/// \brief Peak resident set size of the process (VmHWM), MiB.
Result<double> PeakRssMiB();
/// \brief Returns freed heap memory to the OS, so that a following
/// ResetPeakRss() starts from the live heap.
void TrimHeap();

/// \brief Counter value from a Prometheus text scrape (0 when absent).
double ScrapeCounter(const std::string& text, const std::string& name);

// ---------------------------------------------------------------------------
// Closed-loop wire clients (shared by every workload)
// ---------------------------------------------------------------------------

/// \brief One successful response, as seen by the client that sent it.
struct Reply {
  size_t client = 0;
  size_t item = 0;       ///< index into QuerySet::items
  int64_t tag = 0;       ///< what LoopHooks::before returned for this send
  int64_t start_ns = 0;  ///< SpanLog::NowNs() before the send
  int64_t end_ns = 0;    ///< SpanLog::NowNs() after the response decoded
  bool measured = false;  ///< false during warm-up
  const net::WireQueryResult* result = nullptr;
};

struct LoopHooks {
  /// Called on the client thread right before each send (optional).
  std::function<int64_t()> before;
  /// Called on the client thread after each successful response, warm-up
  /// included; checks or records the answer. Required. Runs concurrently
  /// on every client thread: keep state per Reply::client.
  std::function<void(const Reply&)> on_reply;
  /// Called on the main thread when the measured window opens (optional).
  std::function<void()> on_open;
  /// Called on the main thread every `tick_s` while the window is open.
  std::function<void()> on_tick;
  double tick_s = 0;
};

struct LoopResult {
  Timings timings;  ///< measured, successful requests
  /// Latencies of those requests by the slice of the window in which they
  /// completed, and process CPU per slice.
  std::vector<Histogram> slice_latency;
  std::vector<double> slice_cpu_s;
  double slice_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< shed, timed out or failed: counted, not retried
  double wall_s = 0;
  std::string scrape_before, scrape_after;  ///< wire METRICS scrapes
};

/// \brief Runs `clients` closed-loop NetClient threads against the server
/// at `port` for `seconds`, cut into `slices` equal slices. Each prepares
/// the query set's templates, sends `warmup` unmeasured queries, waits
/// until all are ready, then sends queries (client c starts at item
/// c * n / clients) until the deadline, as one-shot SQL text or EXECUTEs
/// of the prepared templates.
Result<LoopResult> RunWireLoop(uint16_t port, const std::string& dataset,
                               const QuerySet& qs, int clients,
                               double seconds, size_t slices, size_t warmup,
                               const LoopHooks& hooks);

// ---------------------------------------------------------------------------
// Spans (traced runs): kept in memory, written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;      ///< span id of the parent, 0 = unknown
  uint64_t request_id = 0;  ///< 0 = not attributable to one request
  uint64_t id = 0;
};

class SpanLog {
 public:
  static int64_t NowNs();
  /// Reserves a span id (so children can name a parent recorded later).
  uint64_t NewId() { return next_id_.fetch_add(1); }
  /// Records a finished span. Thread-safe.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
           uint64_t parent, uint64_t request_id);
  /// Writes one JSON object per span; returns the number written.
  Result<size_t> WriteJsonl(const std::string& path) const;
  /// Spans beyond this many are counted but not kept.
  static constexpr size_t kMaxSpans = 200000;
  uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::atomic<uint64_t> next_id_{1};
};

/// \brief One per-layer reconciliation row: mean ms per query.
struct LayerRow {
  std::string layer;
  double self_ms = 0;
  bool in_sum = true;  ///< false: busy time of unparented pool work
};

/// \brief Prints the per-layer table (stderr): rows in the sum plus the
/// `unattributed` remainder add up to `client_ms`.
void PrintLayerTable(const std::string& workload, double client_ms,
                     const std::vector<LayerRow>& rows, double traced_qps,
                     double untraced_qps);

// ---------------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------------

Result<RunResult> RunFixedWorkload(const Args& args, const WorkloadConfig& cfg);
Result<RunResult> RunLiveWorkload(const Args& args, const WorkloadConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
