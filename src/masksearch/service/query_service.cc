#include "masksearch/service/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

namespace masksearch {

namespace {

std::chrono::steady_clock::time_point DeadlineFor(double request_seconds,
                                                  double default_seconds) {
  // Request value 0 = inherit the service default; negative = explicitly
  // none (even when a default exists).
  const double effective =
      request_seconds == 0 ? default_seconds : request_seconds;
  if (effective <= 0) return std::chrono::steady_clock::time_point::max();
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(effective));
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

ServiceStatsRecorder::Outcome OutcomeOf(const Status& s) {
  if (s.ok()) return ServiceStatsRecorder::Outcome::kCompleted;
  if (s.IsDeadlineExceeded()) {
    return ServiceStatsRecorder::Outcome::kDeadlineMissed;
  }
  if (s.IsCancelled()) return ServiceStatsRecorder::Outcome::kCancelled;
  return ServiceStatsRecorder::Outcome::kFailed;
}

}  // namespace

// ---------------------------------------------------------------------------
// PendingQuery
// ---------------------------------------------------------------------------

Result<QueryResponse> PendingQuery::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return result_;
}

Result<QueryResponse> PendingQuery::WaitFor(
    std::chrono::steady_clock::duration timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, timeout, [&] { return done_; })) {
    return Status::Unavailable("result not ready");
  }
  return result_;
}

bool PendingQuery::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void PendingQuery::NotifyDone(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!done_) {
      on_done_ = std::move(fn);
      return;
    }
  }
  // Already finished: Finish() has fired (or will never see) the stored
  // callback, so this one runs inline.
  if (fn) fn();
}

void PendingQuery::Finish(Result<QueryResponse> result) {
  std::function<void()> on_done;
  SessionLease released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    done_ = true;
    on_done = std::move(on_done_);
    on_done_ = nullptr;
    // Drop the lease now, not at handle destruction: a client may hold the
    // handle long after Wait(), and snapshot retention must end with the
    // request (the "unpins promptly" invariant, docs/INGEST.md). The pin
    // is destroyed outside the lock — releasing the last reference to a
    // Snapshot tears down a store + session.
    released = std::move(lease_);
    lease_ = SessionLease{};
  }
  cv_.notify_all();
  if (on_done) on_done();
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(Session* session, QueryServiceOptions options)
    : session_(session),
      options_(options),
      queue_(options.class_weights) {}

Result<std::unique_ptr<QueryService>> QueryService::Start(
    Session* session, const QueryServiceOptions& options) {
  if (session == nullptr && !options.session_resolver) {
    return Status::InvalidArgument(
        "null session (only allowed with a session_resolver)");
  }
  QueryServiceOptions opts = options;
  opts.num_workers = std::max<size_t>(1, opts.num_workers);
  opts.max_queue_depth = std::max<size_t>(1, opts.max_queue_depth);
  auto service =
      std::unique_ptr<QueryService>(new QueryService(session, opts));
  service->workers_.reserve(opts.num_workers);
  for (size_t i = 0; i < opts.num_workers; ++i) {
    service->workers_.emplace_back([s = service.get()] { s->WorkerLoop(); });
  }
  return service;
}

QueryService::~QueryService() { Shutdown(); }

uint64_t QueryService::EstimateCostBytes(const ServiceRequest& request,
                                         const Session& session) const {
  if (request.cost_bytes_hint > 0) return request.cost_bytes_hint;
  if (options_.cost_estimator) return options_.cost_estimator(request);
  return SelectionBytes(session.store(), request.query.selection());
}

Result<std::shared_ptr<PendingQuery>> QueryService::Submit(
    ServiceRequest request) {
  auto pending = std::shared_ptr<PendingQuery>(new PendingQuery());
  pending->request_ = std::move(request);
  pending->control_.deadline = DeadlineFor(pending->request_.deadline_seconds,
                                           options_.default_deadline_seconds);
  // Epoch-snapshot resolution happens at admission: the request is bound to
  // the store view published *now* and keeps it (pinned) no matter how many
  // epochs writers publish before it executes.
  if (options_.session_resolver) {
    pending->lease_ = options_.session_resolver();
    if (pending->lease_.session == nullptr) {
      return Status::Unavailable("session resolver returned no session");
    }
  } else {
    pending->lease_.session = session_;
  }
  pending->epoch_ = pending->lease_.epoch;

  // Tracing decision at admission (docs/OBSERVABILITY.md): an explicit
  // client trace_id always traces; otherwise the id is minted here and the
  // sampling hash decides. A slow-query log traces everything — it needs
  // the span breakdown of whichever requests turn out slow.
  {
    const uint64_t id = pending->request_.trace_id != 0
                            ? pending->request_.trace_id
                            : obs::Trace::NextId();
    const bool forced =
        pending->request_.trace_id != 0 || options_.slow_query_log != nullptr;
    if (forced || obs::Trace::ShouldSample(id, options_.trace_sample_rate)) {
      pending->trace_ = std::make_unique<obs::Trace>(id);
    }
  }

  const PriorityClass cls = pending->request_.priority;
  // Admission control: bounded queue depth and queued bytes. Both checks
  // shed the request immediately with a retryable typed status instead of
  // absorbing it into an unbounded queue. Shutdown and queue-depth are
  // checked *before* the byte estimate, so the overload reject path — the
  // case admission control exists to make cheap — never pays the catalog
  // walk; the estimate itself runs outside the lock (it can be O(catalog)
  // for metadata-constrained selections) and depth is re-checked after.
  // Shutdown refusals and overload sheds land in distinct counters: only
  // the latter means "retry later", and the bench overload sweep reads the
  // shed ratio from `rejected` alone.
  auto shed_check = [&]() -> Status {
    if (shutdown_) {
      stats_.RecordRejected(cls,
                            ServiceStatsRecorder::RejectReason::kShutdown);
      return Status::Unavailable("query service is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      stats_.RecordRejected(cls,
                            ServiceStatsRecorder::RejectReason::kOverload);
      return Status::Unavailable(
          "admission: queue depth limit reached (" +
          std::to_string(options_.max_queue_depth) + " queued)");
    }
    return Status::OK();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    MS_RETURN_NOT_OK(shed_check());
  }
  pending->cost_bytes_ =
      EstimateCostBytes(pending->request_, *pending->lease_.session);
  {
    std::lock_guard<std::mutex> lock(mu_);
    MS_RETURN_NOT_OK(shed_check());  // state may have moved during the estimate
    // The bytes limit skips an empty queue so one request larger than the
    // whole budget is still servable (it will occupy the queue alone).
    if (!queue_.empty() && queue_.queued_bytes() + pending->cost_bytes_ >
                               options_.max_queued_bytes) {
      stats_.RecordRejected(cls,
                            ServiceStatsRecorder::RejectReason::kOverload);
      return Status::Unavailable(
          "admission: queued-bytes limit reached (" +
          std::to_string(queue_.queued_bytes()) + " + " +
          std::to_string(pending->cost_bytes_) + " > " +
          std::to_string(options_.max_queued_bytes) + ")");
    }
    stats_.RecordAdmitted(cls);
    pending->submit_time_ = std::chrono::steady_clock::now();
    ScheduledItem item;
    item.tenant = pending->request_.tenant;
    item.priority = cls;
    item.cost_bytes = pending->cost_bytes_;
    item.payload = pending;
    queue_.Push(std::move(item));
    peak_queued_ = std::max<uint64_t>(peak_queued_, queue_.size());
  }
  work_cv_.notify_one();
  return pending;
}

Result<QueryResponse> QueryService::Execute(ServiceRequest request) {
  MS_ASSIGN_OR_RETURN(std::shared_ptr<PendingQuery> pending,
                      Submit(std::move(request)));
  return pending->Wait();
}

void QueryService::Dispatch(const std::shared_ptr<PendingQuery>& pending) {
  const double queue_seconds = SecondsSince(pending->submit_time_);
  const PriorityClass cls = pending->request_.priority;
  // Install the request's trace on this worker thread for the whole
  // execution: every MS_TRACE_SPAN below (executors, cache, storage) lands
  // in it. Null trace = every instrumentation point is one TLS null check.
  obs::TraceScope trace_scope(pending->trace_.get());
  if (pending->trace_) {
    // "queue_wait" + "exec" partition the request's life, so the slow-log
    // invariant "top-level spans sum to total latency" holds by
    // construction (tests/trace_replay_test.cc asserts it).
    pending->trace_->AddSpan("queue_wait", queue_seconds);
  }

  // Shed without executing when the request is already dead: its deadline
  // expired while queued, or the client cancelled it.
  Status pre = pending->control_.Check();
  if (!pre.ok()) {
    stats_.RecordOutcome(cls, OutcomeOf(pre), queue_seconds, queue_seconds);
    OfferSlowLog(*pending, pre, queue_seconds, 0, queue_seconds);
    pending->Finish(std::move(pre));
    return;
  }

  QueryResponse response;
  response.kind = pending->request_.query.kind;
  response.queue_seconds = queue_seconds;
  const auto exec_start = std::chrono::steady_clock::now();
  Status status = Status::OK();
  // The lease resolved at admission, not the service's fixed session: for a
  // live dataset this is the pinned epoch snapshot the request must read.
  Session* session = pending->lease_.session;
  switch (pending->request_.query.kind) {
    case QueryRequest::Kind::kFilter: {
      auto r = session->Filter(pending->request_.query.filter,
                               &pending->control_);
      if (r.ok()) {
        response.filter = std::move(*r);
      } else {
        status = r.status();
      }
      break;
    }
    case QueryRequest::Kind::kTopK: {
      auto r =
          session->TopK(pending->request_.query.topk, &pending->control_);
      if (r.ok()) {
        response.topk = std::move(*r);
      } else {
        status = r.status();
      }
      break;
    }
    case QueryRequest::Kind::kAggregation: {
      auto r = session->Aggregate(pending->request_.query.agg,
                                  &pending->control_);
      if (r.ok()) {
        response.agg = std::move(*r);
      } else {
        status = r.status();
      }
      break;
    }
    case QueryRequest::Kind::kMaskAgg: {
      auto r = session->MaskAggregate(pending->request_.query.mask_agg,
                                      &pending->control_);
      if (r.ok()) {
        response.agg = std::move(*r);
      } else {
        status = r.status();
      }
      break;
    }
  }
  response.exec_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    exec_start)
          .count();
  if (pending->trace_) {
    pending->trace_->AddSpan("exec", response.exec_seconds);
  }

  const double total_seconds = SecondsSince(pending->submit_time_);
  stats_.RecordOutcome(cls, OutcomeOf(status), queue_seconds, total_seconds);
  OfferSlowLog(*pending, status, queue_seconds, response.exec_seconds,
               total_seconds);
  if (status.ok()) {
    pending->Finish(std::move(response));
  } else {
    pending->Finish(std::move(status));
  }
}

void QueryService::OfferSlowLog(const PendingQuery& pending,
                                const Status& status, double queue_seconds,
                                double exec_seconds,
                                double total_seconds) const {
  obs::SlowQueryLog* log = options_.slow_query_log;
  if (log == nullptr || !pending.trace_) return;
  obs::SlowQueryEntry e;
  e.trace_id = pending.trace_->id();
  e.tenant = pending.request_.tenant;
  e.priority_class = PriorityClassToString(pending.request_.priority);
  e.status = StatusCodeToString(status.code());
  e.epoch = pending.epoch_;
  e.total_seconds = total_seconds;
  e.queue_seconds = queue_seconds;
  e.exec_seconds = exec_seconds;
  e.spans = pending.trace_->spans();
  e.counts = pending.trace_->counts();
  log->Offer(std::move(e));
}

void QueryService::WorkerLoop() {
  for (;;) {
    ScheduledItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      queue_.Pop(&item);
      ++running_;
    }
    Dispatch(std::static_pointer_cast<PendingQuery>(item.payload));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void QueryService::Shutdown() {
  std::vector<std::shared_ptr<PendingQuery>> orphaned;
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Fail queued requests instead of running them: shutdown should not
    // wait for a backlog, only for what is already executing.
    ScheduledItem item;
    while (queue_.Pop(&item)) {
      orphaned.push_back(std::static_pointer_cast<PendingQuery>(item.payload));
    }
    // Claim the worker threads under the lock: a concurrent Shutdown (an
    // explicit call racing the destructor) claims an empty vector and joins
    // nothing, so no thread is ever joined twice.
    to_join.swap(workers_);
  }
  work_cv_.notify_all();
  // Draining the queue above may have made Drain()'s predicate true without
  // any dispatch completing — wake its waiters too (lost-wakeup hazard).
  idle_cv_.notify_all();
  for (auto& pending : orphaned) {
    stats_.RecordOutcome(pending->request_.priority,
                         ServiceStatsRecorder::Outcome::kCancelled,
                         SecondsSince(pending->submit_time_), 0);
    pending->Finish(Status::Cancelled("query service shut down"));
  }
  for (auto& w : to_join) w.join();
}

ServiceStats QueryService::Stats() const {
  uint64_t queued, bytes, peak;
  size_t running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = queue_.size();
    running = running_;
    bytes = queue_.queued_bytes();
    peak = peak_queued_;
  }
  return stats_.Snapshot(queued, running, bytes, peak);
}

}  // namespace masksearch
