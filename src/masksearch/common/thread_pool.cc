#include "masksearch/common/thread_pool.h"

#include <algorithm>

namespace masksearch {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
    ++active_;
  }
  task();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    if (tasks_.empty() && active_ == 0) done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool pool(0);
  return &pool;
}

void ParallelForOnPool(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn) {
  // 4 chunks per worker balances skewed per-item costs (e.g. some masks
  // verified, most pruned) against scheduling overhead.
  const size_t num_chunks = std::min(n, pool->num_threads() * 4);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;

  // Chunks are claimed from a shared counter by pool workers AND by the
  // calling thread. Caller participation makes nested ParallelFor calls on
  // the same pool deadlock-free: a caller that is itself a pool worker
  // drains its own chunks instead of blocking on workers that may all be
  // waiting on nested loops of their own. Helpers capture the state by
  // shared_ptr because a helper may still be scheduled (and find no chunks
  // left) after the caller has returned.
  struct State {
    std::function<void(size_t)> fn;
    size_t n, chunk, num_chunks;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> done_chunks{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;
  state->chunk = chunk;
  state->num_chunks = num_chunks;

  auto drain = [](const std::shared_ptr<State>& s) {
    size_t c;
    while ((c = s->next_chunk.fetch_add(1)) < s->num_chunks) {
      const size_t begin = c * s->chunk;
      const size_t end = std::min(s->n, begin + s->chunk);
      for (size_t i = begin; i < end; ++i) s->fn(i);
      if (s->done_chunks.fetch_add(1) + 1 == s->num_chunks) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  // One helper per worker is enough: each drains chunks until none remain.
  const size_t helpers = std::min(num_chunks - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, drain] { drain(state); });
  }
  drain(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock,
                 [&] { return state->done_chunks.load() == state->num_chunks; });
}

}  // namespace masksearch
