// Closed-loop wire clients, shared by every workload: NetClient threads that
// send the query set as SQL text or prepared-statement EXECUTEs, each
// waiting for its answer before sending the next query.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "perfbench.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Start line shared by the client threads: each arrives after its
/// connection, statements and warm-up are ready; the main thread then
/// opens the measured window.
struct StartLine {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> abort{false};
  Clock::time_point start, deadline;
  Clock::duration slice{};
  size_t slices = 1;

  /// False when the run was aborted before the window opened.
  bool Wait() {
    ready.fetch_add(1);
    while (!go.load() && !abort.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return !abort.load();
  }
};

struct ClientOutcome {
  Status status;
  Timings timings;
  std::vector<Histogram> slices;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Clock::time_point finished;
};

void WireClient(uint16_t port, const std::string* dataset, const QuerySet* qs,
                size_t client, size_t offset, size_t warmup,
                const LoopHooks* hooks, StartLine* line, ClientOutcome* out) {
  auto fail = [&](const Status& st) {
    out->status = st;
    line->abort.store(true);
    line->ready.fetch_add(1);
  };
  auto conn = net::NetClient::Connect("127.0.0.1", port);
  if (!conn.ok()) return fail(conn.status());
  net::NetClient* c = conn->get();
  std::vector<uint64_t> stmts;
  for (const std::string& t : qs->templates) {
    auto h = c->Prepare(*dataset, t);
    if (!h.ok()) return fail(h.status());
    stmts.push_back(h->stmt_id);
  }
  const size_t n = qs->items.size();
  // Sends item j and waits for its answer.
  auto send = [&](size_t j, bool measured) -> Status {
    const size_t item = (offset + j) % n;
    const QueryItem& it = qs->items[item];
    Reply reply;
    reply.client = client;
    reply.item = item;
    reply.measured = measured;
    reply.tag = hooks->before ? hooks->before() : 0;
    reply.start_ns = SpanLog::NowNs();
    auto r = it.prepared >= 0
                 ? c->Execute(stmts[static_cast<size_t>(it.prepared)], it.params)
                 : c->Query(*dataset, it.sql);
    reply.end_ns = SpanLog::NowNs();
    MS_RETURN_NOT_OK(r.status());
    reply.result = &r->result;
    hooks->on_reply(reply);
    if (measured) {
      const double ms = (reply.end_ns - reply.start_ns) * 1e-6;
      out->timings.Add(ms, r->result.queue_seconds * 1e3,
                       r->result.exec_seconds * 1e3);
      const auto slice =
          static_cast<size_t>((Clock::now() - line->start) / line->slice);
      if (slice < line->slices) out->slices[slice].Add(ms);
    }
    return Status::OK();
  };
  for (size_t j = 0; j < warmup; ++j) {
    Status st = send(j, false);
    if (!st.ok()) return fail(st);
  }
  if (!line->Wait()) return;
  for (size_t j = warmup; Clock::now() < line->deadline; ++j) {
    ++out->attempted;
    if (!send(j, true).ok()) ++out->failed;
  }
  out->finished = Clock::now();
}

}  // namespace

Result<LoopResult> RunWireLoop(uint16_t port, const std::string& dataset,
                               const QuerySet& qs, int clients,
                               double seconds, size_t slices, size_t warmup,
                               const LoopHooks& hooks) {
  StartLine line;
  line.slices = std::max<size_t>(1, slices);
  std::vector<ClientOutcome> outs(static_cast<size_t>(clients));
  for (ClientOutcome& o : outs) o.slices.resize(line.slices);
  std::vector<std::thread> threads;
  const size_t n = qs.items.size();
  for (size_t c = 0; c < outs.size(); ++c) {
    threads.emplace_back(WireClient, port, &dataset, &qs, c, c * n / outs.size(),
                         warmup, &hooks, &line, &outs[c]);
  }
  while (line.ready.load() < clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  LoopResult loop;
  Status scrape_status = Status::OK();
  if (!line.abort.load()) {
    auto scraper = net::NetClient::Connect("127.0.0.1", port);
    Result<std::string> before = scraper.ok()
                                     ? (*scraper)->Metrics()
                                     : Result<std::string>(scraper.status());
    if (before.ok()) {
      loop.scrape_before = *before;
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      loop.slice_s = seconds / static_cast<double>(line.slices);
      line.start = t0;
      line.slice = ToDuration(loop.slice_s);
      line.deadline = t0 + ToDuration(seconds);
      if (hooks.on_open) hooks.on_open();
      line.go.store(true);
      // Slice ends (process CPU is read at each) and hook ticks, in time
      // order.
      double cpu_mark = cpu0;
      size_t slice = 1;
      int tick = 1;
      const bool ticking = static_cast<bool>(hooks.on_tick);
      for (;;) {
        const double next_slice =
            slice <= line.slices ? slice * loop.slice_s : HUGE_VAL;
        const double next_tick =
            ticking && tick * hooks.tick_s <= seconds + 1e-9
                ? tick * hooks.tick_s
                : HUGE_VAL;
        const double next = std::min(next_slice, next_tick);
        if (next == HUGE_VAL) break;
        std::this_thread::sleep_until(t0 + ToDuration(next));
        if (next_slice <= next) {
          const double cpu = ProcessCpuSeconds();
          loop.slice_cpu_s.push_back(cpu - cpu_mark);
          cpu_mark = cpu;
          ++slice;
        }
        if (next_tick <= next) {
          hooks.on_tick();
          ++tick;
        }
      }
      for (auto& t : threads) t.join();
      threads.clear();
      Clock::time_point last = t0;
      for (const ClientOutcome& o : outs) last = std::max(last, o.finished);
      loop.wall_s = std::chrono::duration<double>(last - t0).count();
      auto after = (*scraper)->Metrics();
      if (after.ok()) {
        loop.scrape_after = *after;
      } else {
        scrape_status = after.status();
      }
    } else {
      scrape_status = before.status();
      line.abort.store(true);
    }
  }
  for (auto& t : threads) t.join();
  loop.slice_latency.resize(line.slices);
  for (ClientOutcome& o : outs) {
    MS_RETURN_NOT_OK(o.status);
    loop.attempted += o.attempted;
    loop.failed += o.failed;
    loop.timings.Merge(o.timings);
    for (size_t w = 0; w < line.slices; ++w) {
      loop.slice_latency[w].Merge(o.slices[w]);
    }
  }
  MS_RETURN_NOT_OK(scrape_status);
  return loop;
}

}  // namespace perfbench
