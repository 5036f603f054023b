// A small fixed-size thread pool.  Two kinds of work run on one:
//
//   - the requests of `windim serve` (one pool per Server);
//   - the cells of the scenario matrix and the fuzz campaign.
//
// A solve itself is serial: splitting a heuristic-MVA sweep's chains
// across a pool paid 1.3-1.6x at 10k chains on 4 threads, and no
// benchmark workload reached the 256 chains where it engaged.
//
// The pool keeps its workers alive across batches, so a caller pays
// thread start-up once, not once per batch.  Jobs are plain
// std::function<void()>; callers that need results wait on the returned
// futures (see submit) or use run_batch, which blocks until every job in
// the batch has finished and runs jobs inline when the pool is empty
// (zero worker threads = serial fallback).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace windim::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 creates a pool that runs everything
  /// inline on the calling thread (useful as a serial fallback object).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

  /// Enqueues `job` and returns a future for its completion.  Inline
  /// execution when the pool has no workers.
  std::future<void> submit(std::function<void()> job);

  /// Runs all jobs, possibly concurrently, and returns when every one has
  /// completed.  Exceptions escaping a job propagate to the caller (the
  /// first one encountered, in job order).
  void run_batch(std::vector<std::function<void()>> jobs);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stop_ = false;
};

/// The pool size to use for `requested` threads: non-positive requests
/// resolve to std::thread::hardware_concurrency().
[[nodiscard]] std::size_t resolve_thread_count(int requested) noexcept;

}  // namespace windim::util
