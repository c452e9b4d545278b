#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace xfrag {

ThreadPool::ThreadPool(unsigned parallelism) {
  unsigned spawned = parallelism > 1 ? parallelism - 1 : 0;
  workers_.reserve(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void ThreadPool::HelpWhileWaiting(std::unique_lock<std::mutex>& lock,
                                  const std::function<bool()>& done) {
  while (!done()) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      lock.lock();
    } else {
      cv_.wait(lock, [&] { return done() || !queue_.empty(); });
    }
  }
  // Post wakes a single thread; if that wakeup landed here just as `done`
  // turned true, hand it on so the queued task is not stranded.
  if (!queue_.empty()) cv_.notify_one();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::vector<std::pair<size_t, size_t>> ThreadPool::Chunks(size_t n,
                                                          unsigned parts) {
  std::vector<std::pair<size_t, size_t>> out;
  if (n == 0) return out;
  size_t p = std::max<unsigned>(parts, 1);
  p = std::min<size_t>(p, n);
  out.reserve(p);
  // Near-equal contiguous chunks: the first n % p chunks get one extra item.
  size_t base = n / p;
  size_t extra = n % p;
  size_t begin = 0;
  for (size_t c = 0; c < p; ++c) {
    size_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

void ThreadPool::ParallelFor(
    size_t n,
    const std::function<void(unsigned chunk, size_t begin, size_t end)>&
        body) {
  std::vector<std::pair<size_t, size_t>> chunks = Chunks(n, parallelism());
  if (chunks.empty()) return;
  if (chunks.size() == 1) {
    body(0, chunks[0].first, chunks[0].second);
    return;
  }
  // Per-call completion state; the pool-wide cv_ doubles as the completion
  // signal (waiters re-check their own counter).
  struct CallState {
    size_t remaining;
  };
  auto state = std::make_shared<CallState>();
  state->remaining = chunks.size() - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t c = 1; c < chunks.size(); ++c) {
      queue_.emplace_back([this, state, c, &chunks, &body] {
        body(static_cast<unsigned>(c), chunks[c].first, chunks[c].second);
        {
          std::lock_guard<std::mutex> inner(mutex_);
          --state->remaining;
        }
        cv_.notify_all();
      });
    }
  }
  cv_.notify_all();
  // The caller is worker 0, then helps drain the queue until its own chunks
  // are done (keeps nested ParallelFor calls deadlock-free).
  body(0, chunks[0].first, chunks[0].second);
  std::unique_lock<std::mutex> lock(mutex_);
  HelpWhileWaiting(lock, [&] { return state->remaining == 0; });
}

}  // namespace xfrag
