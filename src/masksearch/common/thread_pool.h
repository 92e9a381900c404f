// Fixed-size thread pool with a ParallelFor helper.
//
// The paper's filter stage "processes each mask targeted by the filter
// predicate in parallel" (§3.2.1) and "all evaluated methods were using all
// vCPUs" (§4.1); executors route per-mask work through this pool.

#ifndef MASKSEARCH_COMMON_THREAD_POOL_H_
#define MASKSEARCH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace masksearch {

/// \brief A fixed pool of worker threads executing queued closures.
class ThreadPool {
 public:
  /// \param num_threads number of workers; 0 means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// \brief Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// \brief Blocks until all submitted tasks have completed.
  ///
  /// Never call this from inside a pool task: the caller would wait for
  /// itself. Use TryRunOneTask / WaitHelping for cooperative waiting from
  /// task context.
  void Wait();

  /// \brief Pops one queued task and runs it on the calling thread; returns
  /// false (without blocking) when the queue is empty. The task counts as
  /// active for Wait() while it runs. This is the building block of
  /// cooperative waiting: a thread that is itself a pool task (a service
  /// worker dispatched onto a shared pool, a prefetch task awaiting nested
  /// loads) drains queued work instead of blocking the only threads that
  /// could complete it.
  bool TryRunOneTask();

  /// \brief Process-wide default pool (lazily constructed, all cores).
  static ThreadPool* Default();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;        // signals workers: task available / stop
  std::condition_variable done_cv_;   // signals Wait(): everything drained
  size_t active_ = 0;
  bool stop_ = false;
};

/// \brief Runs fn(i) for i in [0, n) on `pool`, blocking until completion.
///
/// Work is divided into contiguous chunks claimed from a shared counter by
/// the pool workers and by the calling thread, so per-index overhead stays
/// negligible even for millions of cheap items. Caller participation also
/// makes nested calls on the same pool deadlock-free: every loop's initiator
/// can always drain its own chunks (the sharded batch loader runs inside
/// prefetch tasks that way). With a null or single-threaded pool the loop
/// runs inline, without wrapping `fn` in a std::function.
void ParallelForOnPool(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn);
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ParallelForOnPool(pool, n, fn);
}

}  // namespace masksearch

#endif  // MASKSEARCH_COMMON_THREAD_POOL_H_
