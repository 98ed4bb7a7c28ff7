#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace glova {

namespace {

/// The pool whose worker the current thread is, if any.
thread_local const ThreadPool* tl_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                              std::size_t max_workers) {
  if (n == 0) return;
  if (n == 1 || max_workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::size_t n_tasks = std::min(n, workers_.size());
  if (max_workers != 0) n_tasks = std::min(n_tasks, max_workers);
  std::vector<std::future<void>> futures;
  futures.reserve(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    futures.push_back(submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futures) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::run_fork_join(std::size_t n, IndexFn fn, void* ctx) {
  bool fan_out = n > 1 && workers_.size() > 1 && tl_worker_of != this;
  if (fan_out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fan_out = job_.fn == nullptr;  // else another fork_join holds the slot
    if (fan_out) {
      job_.fn = fn;
      job_.ctx = ctx;
      job_.n = n;
      job_.next.store(0);
      ++job_.serial;
    }
  }
  if (!fan_out) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(ctx, i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  for (std::size_t w = std::min(n - 1, workers_.size()); w > 0; --w) cv_.notify_one();
  run_job_indices(n, fn, ctx);
  std::exception_ptr error;
  {
    // Every index is claimed; wait for the workers still running one, then
    // free the slot.
    std::unique_lock<std::mutex> lock(mutex_);
    job_left_.wait(lock, [this] { return job_.joined == 0; });
    job_.fn = nullptr;
    error = std::exchange(job_.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_job_indices(std::size_t n, IndexFn fn, void* ctx) {
  for (std::size_t i = job_.next.fetch_add(1); i < n; i = job_.next.fetch_add(1)) {
    try {
      fn(ctx, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!job_.error) job_.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  tl_worker_of = this;
  std::uint64_t last_joined = 0;  // serial of the last job this worker joined
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || !tasks_.empty() || (job_.fn != nullptr && job_.serial != last_joined);
    });
    if (job_.fn != nullptr && job_.serial != last_joined) {
      last_joined = job_.serial;
      ++job_.joined;
      const IndexFn fn = job_.fn;
      void* const ctx = job_.ctx;
      const std::size_t n = job_.n;
      lock.unlock();
      run_job_indices(n, fn, ctx);
      lock.lock();
      if (--job_.joined == 0) job_left_.notify_one();
      continue;
    }
    if (stop_ && tasks_.empty()) return;
    {
      std::packaged_task<void()> task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      task();
    }
    lock.lock();
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace glova
