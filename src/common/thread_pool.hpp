// Fixed-size worker pool used to run SPICE/behavioral simulations in
// parallel.  The paper runs N' = 3 simulations concurrently during
// optimization and "maximum available resources" during verification; the
// pool supports both via `parallel_for`.  `fork_join` fans out the
// sub-millisecond per-member work of the ensemble critic on the same workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace glova {

class ThreadPool {
 public:
  /// Create a pool with `n_threads` workers (0 means hardware_concurrency).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [0, n) across the pool and block until all complete.
  /// At most `max_workers` tasks run concurrently (0 = every worker).
  /// Exceptions from tasks are rethrown (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_workers = 0);

  /// Run fn(i) for every i in [0, n) and return once all have run.  Made for
  /// fan-outs too short for the task queue: it allocates nothing, the caller
  /// claims indices too, and idle workers join through one job slot.  It
  /// runs inline, in index order, when n <= 1, when the pool has one worker,
  /// when called from one of this pool's workers, or when another fork_join
  /// holds the slot.  Every index runs even when one throws; the first
  /// exception is then rethrown.
  template <class Fn>
  void fork_join(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_fork_join(n, [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); },
                  const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  using IndexFn = void (*)(void* ctx, std::size_t i);

  void worker_loop();
  void run_fork_join(std::size_t n, IndexFn fn, void* ctx);
  /// Claim and run the slot's indices until none are left.
  void run_job_indices(std::size_t n, IndexFn fn, void* ctx);

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  /// The fork_join slot, guarded by mutex_ except `next`.
  struct Job {
    IndexFn fn = nullptr;  ///< null while the slot is free
    void* ctx = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  ///< next unclaimed index
    std::size_t joined = 0;            ///< workers inside the job
    std::uint64_t serial = 0;          ///< jobs posted so far: a worker joins each once
    std::exception_ptr error;
  };
  Job job_;
  std::condition_variable job_left_;  ///< signalled when the last joined worker leaves
};

/// Process-wide pool shared by simulation services.  Lazily constructed.
ThreadPool& global_thread_pool();

}  // namespace glova
