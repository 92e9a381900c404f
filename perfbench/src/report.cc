// Result ledger, statistics helpers, span log and the per-layer table.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

bool WantAnotherSetup(const Args& args, const std::vector<double>& done) {
  if (args.trace) return done.empty();
  double total = 0;
  for (double s : done) total += s;
  return static_cast<int>(done.size()) < kMinSetups ||
         (static_cast<int>(done.size()) < kMaxSetups &&
          total < kSetupBudgetSeconds);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintResult(const RunResult& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", e.c_str());
  }
  std::fprintf(stderr, "%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "%-34s %16.6g  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {

// Bucket 0 holds values under 1 us; bucket i >= 1 holds
// [kGrowth^(i-1), kGrowth^i) us, up to about 60 s.
const double kLogGrowth = std::log(1.002);
const size_t kBuckets =
    static_cast<size_t>(std::ceil(std::log(6e7) / kLogGrowth)) + 2;

}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

void Histogram::Add(double ms) {
  const double us = ms * 1e3;
  size_t i = 0;
  if (us >= 1) {
    i = std::min(kBuckets - 1,
                 static_cast<size_t>(std::log(us) / kLogGrowth) + 1);
  }
  ++buckets_[i];
  ++count_;
  sum_ms_ += ms;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  size_t i = 0;
  for (; i + 1 < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) break;
  }
  if (i == 0) return 0.5e-3;
  return std::exp((static_cast<double>(i) - 0.5) * kLogGrowth) * 1e-3;
}

void Timings::Add(double latency_ms, double queue_ms, double exec_ms) {
  latency.Add(latency_ms);
  queue.Add(queue_ms);
  exec.Add(exec_ms);
  outside.Add(latency_ms - queue_ms - exec_ms);
}

void Timings::Merge(const Timings& other) {
  latency.Merge(other.latency);
  queue.Merge(other.queue);
  exec.Merge(other.exec);
  outside.Merge(other.outside);
}

LoopStats Summarize(const LoopResult& loop) {
  const Timings& t = loop.timings;
  const double n = static_cast<double>(t.latency.count());
  std::vector<double> qps, p50, p99, cpu;
  double fewest = n;
  for (size_t w = 0; w < loop.slice_latency.size(); ++w) {
    const Histogram& h = loop.slice_latency[w];
    const double done = static_cast<double>(h.count());
    fewest = std::min(fewest, done);
    qps.push_back(done / std::max(1e-9, loop.slice_s));
    p50.push_back(h.Quantile(0.5));
    p99.push_back(h.Quantile(0.99));
    cpu.push_back(1e3 * loop.slice_cpu_s[w] / std::max(1.0, done));
    std::fprintf(stderr,
                 "slice %zu: %.0f queries, p50 %.3f ms, p99 %.3f ms, cpu "
                 "%.3f ms/query\n",
                 w, done, p50.back(), p99.back(), cpu.back());
  }
  LoopStats st;
  st.qps = Median(qps);
  st.p50_ms = Median(p50);
  st.p99_ms = Median(p99);
  st.cpu_ms_per_query = Median(cpu);
  std::fprintf(stderr,
               "%.0f queries over %.2f s; whole window: latency ms p50 %.3f "
               "p90 %.3f p98 %.3f p99 %.3f p99.5 %.3f p99.9 %.3f\n",
               n, loop.wall_s, t.latency.Quantile(0.5), t.latency.Quantile(0.9),
               t.latency.Quantile(0.98), t.latency.Quantile(0.99),
               t.latency.Quantile(0.995), t.latency.Quantile(0.999));
  std::fprintf(stderr, "p99 ms: server queue %.3f, server exec %.3f, rest %.3f\n",
               t.queue.Quantile(0.99), t.exec.Quantile(0.99),
               t.outside.Quantile(0.99));
  if (fewest < 1000) {
    std::fprintf(stderr,
                 "note: a slice holds %.0f queries, so fewer than 10 lie "
                 "beyond its p99\n", fewest);
  }
  return st;
}

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

Status ResetPeakRss() {
  // "5" resets the peak RSS (VmHWM) of the process to its current RSS.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) return Status::IOError("clear_refs");
  return ok ? Status::OK() : Status::IOError("cannot write /proc/self/clear_refs");
}

Result<double> PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return Status::NotImplemented("no VmHWM in /proc/self/status");
}

void TrimHeap() { malloc_trim(0); }

double ScrapeCounter(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0;
}

int64_t SpanLog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t id, uint64_t parent, uint64_t request_id) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.request_id = request_id;
  s.id = id;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Result<size_t> SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(spans_.size() * 96);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%llu,\"request\":%llu}\n",
                  static_cast<unsigned long long>(s.id), s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    out += buf;
  }
  MS_RETURN_NOT_OK(WriteFile(path, out));
  return spans_.size();
}

void PrintLayerTable(const std::string& workload, double client_ms,
                     const std::vector<LayerRow>& rows, double traced_qps,
                     double untraced_qps) {
  double sum = 0;
  std::fprintf(stderr, "\nper-layer reconciliation (%s), mean ms per query\n",
               workload.c_str());
  std::fprintf(stderr, "  %-28s %12s %8s\n", "layer", "self_ms", "share");
  for (const LayerRow& r : rows) {
    if (!r.in_sum) continue;
    sum += r.self_ms;
    std::fprintf(stderr, "  %-28s %12.4f %7.1f%%\n", r.layer.c_str(),
                 r.self_ms, client_ms > 0 ? 100 * r.self_ms / client_ms : 0);
  }
  std::fprintf(stderr, "  %-28s %12.4f %7.1f%%\n", "unattributed",
               client_ms - sum,
               client_ms > 0 ? 100 * (client_ms - sum) / client_ms : 0);
  std::fprintf(stderr, "  %-28s %12.4f\n", "= client latency", client_ms);
  for (const LayerRow& r : rows) {
    if (r.in_sum) continue;
    std::fprintf(stderr, "  %-28s %12.4f  (busy, parent unknown; not summed)\n",
                 r.layer.c_str(), r.self_ms);
  }
  std::fprintf(stderr,
               "  traced qps %.1f / untraced qps %.1f = %.3f\n\n", traced_qps,
               untraced_qps, untraced_qps > 0 ? traced_qps / untraced_qps : 0);
}

}  // namespace perfbench
