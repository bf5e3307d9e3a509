#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/logging.h"
#include "obs/trace_propagation.h"

namespace mira {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(mutex_);
  while (!tasks_.empty() || in_flight_ != 0) idle_.Wait(lock);
}

ThreadPool::Stats ThreadPool::GetStats() const {
  MutexLock lock(mutex_);
  return Stats{workers_.size(), tasks_.size(), in_flight_, completed_};
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) task_available_.Wait(lock);
      if (tasks_.empty()) return;  // shutting down with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
      // The pop and the in-flight increment happen under one lock so WaitIdle
      // never observes a task that is neither queued nor counted as running.
      ++in_flight_;
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      ++completed_;
      if (tasks_.empty() && in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

namespace {

// Per-call state shared between the caller and its chunk tasks. `body` is
// borrowed from the caller, which joins every submitted chunk before it
// returns or throws; a chunk no longer touches it once it counts itself done.
struct ParallelForState {
  const std::function<Status(size_t)>* body = nullptr;
  const QueryControl* control = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  size_t end = 0;
  size_t chunk = 0;

  // Captures the forking thread's trace context so worker spans land in the
  // caller's QueryTrace at the join (no-op when untraced or MIRA_OBS=OFF).
  obs::CrossThreadTraceCapture trace;

  Mutex mu;
  CondVar done_cv;
  size_t done_chunks MIRA_GUARDED_BY(mu) = 0;
  /// OK until the first non-OK invocation (first temporally wins).
  Status first_error MIRA_GUARDED_BY(mu);
  std::exception_ptr first_exception MIRA_GUARDED_BY(mu);

  // Records the first failure and stops further chunk scheduling.
  void RecordError(Status status) {
    cancelled.store(true, std::memory_order_release);
    MutexLock lock(mu);
    if (first_error.ok()) first_error = std::move(status);
  }
  void RecordException(std::exception_ptr error) {
    cancelled.store(true, std::memory_order_release);
    MutexLock lock(mu);
    if (!first_exception) first_exception = std::move(error);
  }

  // One chunk task: claims the next `chunk` indices and runs them unless the
  // loop was already cancelled, then counts itself done.
  void RunChunk() {
    const size_t start = next.fetch_add(chunk, std::memory_order_relaxed);
    const size_t stop = std::min(end, start + chunk);
    if (!cancelled.load(std::memory_order_acquire)) {
      // The worker scope collects this chunk's spans into a private buffer;
      // it must close (hand the buffer over) before the chunk is counted
      // done, or the caller's merge could race the handoff.
      obs::CrossThreadTraceCapture::WorkerScope trace_scope(&trace);
      try {
        // Budget check once per chunk, not per index: chunks are the
        // amortization unit of this loop.
        Status status = control != nullptr
                            ? control->Check("ParallelForCancellable")
                            : Status::OK();
        for (size_t i = start; status.ok() && i < stop; ++i) {
          status = (*body)(i);
        }
        if (!status.ok()) RecordError(std::move(status));
      } catch (...) {
        RecordException(std::current_exception());
      }
    }
    MutexLock lock(mu);
    ++done_chunks;
    done_cv.NotifyAll();
  }

  // Waits on this call's own completion count, not ThreadPool::WaitIdle():
  // unrelated tasks and concurrent calls must not stall us. Then splices the
  // (now complete) worker span buffers into the caller's trace.
  void Join(size_t submitted) {
    {
      MutexLock lock(mu);
      while (done_chunks != submitted) done_cv.Wait(lock);
    }
    trace.MergeIntoParent();
  }
};

}  // namespace

Status ParallelForCancellable(ThreadPool* pool, size_t begin, size_t end,
                              const QueryControl* control,
                              const std::function<Status(size_t)>& body) {
  if (begin >= end) return Status::OK();
  const size_t n = end - begin;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    // Inline path: the control is consulted per index. Callers hand us
    // block-granular bodies, so this is already amortized work.
    for (size_t i = begin; i < end; ++i) {
      if (control != nullptr) {
        MIRA_RETURN_NOT_OK(control->Check("ParallelForCancellable"));
      }
      MIRA_RETURN_NOT_OK(body(i));
    }
    return Status::OK();
  }

  const size_t num_workers = pool->num_threads();
  const size_t chunk = std::max<size_t>(1, n / (num_workers * 4));
  const size_t total_chunks = (n + chunk - 1) / chunk;

  auto state = std::make_shared<ParallelForState>();
  state->body = &body;
  state->control = control;
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->chunk = chunk;

  size_t submitted = 0;
  try {
    for (size_t c = 0; c < total_chunks; ++c) {
      pool->Submit([state] { state->RunChunk(); });
      ++submitted;
      // Stop scheduling new chunks once a failure or the control fired;
      // already-queued chunks complete as no-ops.
      if (state->cancelled.load(std::memory_order_acquire)) break;
    }
  } catch (...) {
    // Submit failed (e.g. allocation): wait for whatever was queued, then
    // surface the submission failure.
    state->Join(submitted);
    throw;
  }
  state->Join(submitted);
  MutexLock lock(state->mu);
  if (state->first_exception) std::rethrow_exception(state->first_exception);
  return state->first_error;
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body) {
  // No control and a body that never returns an error: the only failure
  // left is an exception, which ParallelForCancellable rethrows here.
  Status status =
      ParallelForCancellable(pool, begin, end, nullptr, [&body](size_t i) {
        body(i);
        return Status::OK();
      });
  MIRA_DCHECK(status.ok());
}

}  // namespace mira
