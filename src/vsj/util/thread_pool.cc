#include "vsj/util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

/// Shared bookkeeping of one ParallelFor call. Chunks are claimed from
/// `next_chunk` by whoever is free — workers and the calling thread alike —
/// so the call cannot deadlock even when every worker is busy elsewhere:
/// the caller alone can finish all chunks.
struct ParallelForState {
  size_t n = 0;
  size_t num_chunks = 0;
  size_t chunk_size = 0;
  const std::function<void(size_t)>* body = nullptr;

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  std::atomic<bool> aborted{false};
  std::mutex mutex;
  std::condition_variable all_done;
  std::exception_ptr exception;  // first body exception; guarded by mutex

  /// Claims and runs chunks until none remain. A body exception must not
  /// escape onto a worker thread (that would std::terminate), so the first
  /// one is captured for the calling thread to rethrow; remaining chunks
  /// are still claimed and counted, but their bodies are skipped.
  void Drain() {
    while (true) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      if (!aborted.load(std::memory_order_relaxed)) {
        const size_t begin = chunk * chunk_size;
        const size_t end = std::min(n, begin + chunk_size);
        try {
          for (size_t i = begin; i < end; ++i) (*body)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (!exception) exception = std::current_exception();
          }
          aborted.store(true, std::memory_order_relaxed);
        }
      }
      if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        std::lock_guard<std::mutex> lock(mutex);
        all_done.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // inline mode: no workers
  workers_.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  VSJ_DCHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  VSJ_COUNTER_ADD("pool.tasks", 1);
  if (obs::MetricsEnabled()) {
    // Wrap to measure time spent queued. Metrics-on only, so the extra
    // std::function allocation never appears on the default path.
    const uint64_t enqueue_ns = obs::MonotonicNowNs();
    task = [inner = std::move(task), enqueue_ns] {
      VSJ_HIST_RECORD("pool.task_wait_ns",
                      obs::MonotonicNowNs() - enqueue_ns);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    VSJ_CHECK_MSG(!stopping_, "Submit on a stopping ThreadPool");
    tasks_.push_back(std::move(task));
    VSJ_GAUGE_SET("pool.queue_depth", tasks_.size());
  }
  task_available_.notify_one();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  // A few chunks per participant smooths imbalance between chunks without
  // the overhead of one task per index.
  const size_t target_chunks = std::min(n, concurrency() * 4);
  state->chunk_size = (n + target_chunks - 1) / target_chunks;
  state->num_chunks = (n + state->chunk_size - 1) / state->chunk_size;
  state->body = &body;

  // One helper per worker; each drains chunks until none remain, so helpers
  // that are scheduled late simply find nothing to do.
  const size_t helpers = std::min(workers_.size(), state->num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] {
    return state->chunks_done.load(std::memory_order_acquire) ==
           state->num_chunks;
  });
  if (state->exception) std::rethrow_exception(state->exception);
}

size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [&] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      VSJ_GAUGE_SET("pool.queue_depth", tasks_.size());
    }
    task();
  }
}

}  // namespace vsj
