#include "masksearch/exec/verify_pipeline.h"

#include <atomic>
#include <deque>
#include <memory>

#include "masksearch/common/latch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/obs/trace.h"

namespace masksearch {
namespace internal {

namespace {

struct UnitLoad {
  VerifyUnit unit;
  /// Counted down by the unit's io_pool load; null: it loads at verify time.
  std::shared_ptr<Latch> done;
  Result<std::vector<Mask>> masks = Status::Internal("not loaded");
};

/// Shared with the batch's load tasks, so a batch can move freely.
using Batch = std::shared_ptr<std::vector<UnitLoad>>;

}  // namespace

Status RunVerifyPipeline(const MaskStore& store, IndexManager* index,
                         const EngineOptions& opts, const VerifyStages& stages,
                         ExecStats* stats) {
  // Pool tasks run on threads without the request's trace installed;
  // capture it here and reinstall inside each task (docs/OBSERVABILITY.md).
  obs::Trace* const trace = obs::Trace::Current();
  IndexManager* const retain_index = opts.use_index ? index : nullptr;

  // Every submitted load counts down its own latch; the guard waits on all
  // of them before any return path, keeping the tasks' captures alive
  // (helping-drain: it may itself run on an io_pool task).
  LatchDrainGuard drain_on_exit(opts.io_pool);

  auto Start = [&](std::vector<VerifyUnit> units) {
    auto batch = std::make_shared<std::vector<UnitLoad>>(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      UnitLoad& ul = (*batch)[u];
      ul.unit = std::move(units[u]);
      if (opts.io_pool == nullptr) continue;
      if (store.CountResident(ul.unit.ids) == ul.unit.ids.size()) {
        ++stats->prefetch_skipped;
        continue;
      }
      ul.done = drain_on_exit.Add(std::make_shared<Latch>(1));
      opts.io_pool->Submit([&store, batch, u, trace] {
        obs::TraceScope trace_scope(trace);
        MS_TRACE_SPAN("io_load");
        UnitLoad& load = (*batch)[u];
        load.masks = store.LoadMaskBatch(load.unit.ids);
        load.done->CountDown();
      });
    }
    return batch;
  };

  auto Finish = [&](const Batch& batch) -> Status {
    if (opts.io_pool != nullptr) {
      MS_TRACE_SPAN("io_wait");
      // Cooperative wait: a service worker running this executor may itself
      // be a task of io_pool; helping drains queued loads instead of
      // deadlocking the pool against its own pipeline.
      for (const UnitLoad& ul : *batch) {
        if (ul.done != nullptr) WaitHelping(ul.done.get(), opts.io_pool);
      }
    }
    MS_TRACE_SPAN(stages.span);
    std::vector<UnitLoad>& loads = *batch;
    const size_t n = loads.size();
    ThreadPool* const inner = n > 1 ? nullptr : opts.pool;
    std::vector<ExecStats> local(n);
    std::vector<Status> statuses(n, Status::OK());
    ParallelFor(n > 1 ? opts.pool : nullptr, n, [&](size_t u) {
      obs::TraceScope trace_scope(trace);
      UnitLoad& ul = loads[u];
      const std::vector<MaskId>& ids = ul.unit.ids;
      if (ul.done == nullptr) ul.masks = store.LoadMaskBatch(ids);
      if (!ul.masks.ok()) {
        statuses[u] = ul.masks.status();
        return;
      }
      std::vector<Mask>& masks = *ul.masks;
      ExecStats& s = local[u];
      s.masks_loaded = static_cast<int64_t>(ids.size());
      for (MaskId id : ids) {
        s.bytes_read += static_cast<int64_t>(store.BlobSize(id));
      }
      // Incremental indexing (§3.6) / bounded CHI retention.
      std::atomic<int64_t> built{0};
      ParallelFor(inner, ids.size(), [&](size_t j) {
        const int64_t now =
            RetainChiAfterLoad(retain_index, opts, ids[j], masks[j]);
        if (now > 0) built.fetch_add(now, std::memory_order_relaxed);
      });
      s.chis_built = built.load();
      statuses[u] = stages.verify(ul.unit, masks, inner, &s);
      masks = std::vector<Mask>();  // free the unit's pixels before the batch ends
    });
    for (const ExecStats& s : local) *stats += s;
    for (const Status& s : statuses) MS_RETURN_NOT_OK(s);
    return Status::OK();
  };

  const size_t depth = opts.io_pool != nullptr ? 2 : 1;
  std::deque<Batch> inflight;
  bool formed_all = false;
  for (;;) {
    // Batch boundary: the only place a deadline/cancel takes effect.
    MS_RETURN_NOT_OK(CheckControl(opts.control));
    while (!formed_all && inflight.size() < depth) {
      std::vector<VerifyUnit> units = stages.form();
      if (units.empty()) {
        formed_all = true;
      } else {
        inflight.push_back(Start(std::move(units)));
      }
    }
    if (inflight.empty()) return Status::OK();
    const Batch batch = std::move(inflight.front());
    inflight.pop_front();
    MS_RETURN_NOT_OK(Finish(batch));
    if (stages.fold) {
      for (const UnitLoad& ul : *batch) stages.fold(ul.unit);
    }
  }
}

}  // namespace internal
}  // namespace masksearch
