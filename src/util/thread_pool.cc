#include "util/thread_pool.h"

#include <algorithm>

namespace windim::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    task();
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
  return future;
}

void ThreadPool::run_batch(std::vector<std::function<void()>> jobs) {
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job)));
  // Wait for *every* job before rethrowing: jobs capture caller state by
  // reference and must not outlive this frame.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

std::size_t resolve_thread_count(int requested) noexcept {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (requested <= 0) return hw;
  // Cap at the hardware concurrency: the pools run CPU-bound jobs, and
  // oversubscribing cores only adds scheduling latency.
  return std::min(static_cast<std::size_t>(requested), hw);
}

}  // namespace windim::util
