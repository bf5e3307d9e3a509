#ifndef MIRA_COMMON_THREADPOOL_H_
#define MIRA_COMMON_THREADPOOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/sync.h"

namespace mira {

/// Fixed-size worker pool with a simple FIFO queue.
///
/// Thread-safety contract:
///  - Submit() may be called concurrently from any thread.
///  - Tasks must not throw. An exception escaping a task terminates the
///    process (workers run tasks without a handler). Wrap fallible work and
///    route errors through Status instead; ParallelFor and
///    ParallelForCancellable do this for you (a throwing body is caught on
///    the worker and rethrown in the caller).
///  - Destruction drains the queue: every task submitted before the
///    destructor starts is executed before the workers join. Submitting
///    concurrently with destruction is a caller lifetime bug.
///  - WaitIdle() blocks until the queue is empty and no task is executing.
///    It is only a meaningful barrier when the caller knows no other thread
///    is still submitting; with concurrent producers it can wake late (new
///    work arrived) — never early. Prefer ParallelFor, which tracks its own
///    completion and is safe under concurrent callers.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>=1). 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all in-flight tasks have finished.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

  /// Point-in-time execution stats, feeding the `mira.pool.*` gauges
  /// (queue depth / utilization — see docs/OBSERVABILITY.md). A consistent
  /// snapshot (taken under the queue lock), already stale on return.
  struct Stats {
    size_t threads = 0;      ///< Worker count, fixed at construction.
    size_t queued = 0;       ///< Tasks waiting in the FIFO.
    size_t running = 0;      ///< Tasks currently executing.
    uint64_t completed = 0;  ///< Tasks finished since construction.
  };
  Stats GetStats() const;

 private:
  void WorkerLoop();

  /// Joined by the destructor only; written once in the constructor.
  std::vector<std::thread> workers_;

  mutable Mutex mutex_;
  CondVar task_available_;
  CondVar idle_;
  std::queue<std::function<void()>> tasks_ MIRA_GUARDED_BY(mutex_);
  size_t in_flight_ MIRA_GUARDED_BY(mutex_) = 0;
  uint64_t completed_ MIRA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ MIRA_GUARDED_BY(mutex_) = false;
};

/// Runs body(i) for i in [begin, end) across the pool, blocking until every
/// index has been processed. A thin wrapper over ParallelForCancellable with
/// no control and a body that cannot fail, so the contract below is shared.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

/// Cancellable, Status-returning parallel loop: runs body(i) for i in
/// [begin, end) across the pool and returns the first non-OK status any
/// invocation produced (first temporally; later errors are discarded), or
/// the control's kCancelled/kDeadlineExceeded when it fires mid-loop.
///
/// Contract (both loops):
///  - `body` must be safe to call concurrently from multiple threads.
///  - The call never returns (or throws) before every submitted chunk has
///    completed, so `body` may capture the caller's frame by reference.
///  - Completion is tracked per call with a dedicated condition variable
///    (not ThreadPool::WaitIdle), so concurrent calls on the same pool do not
///    block on each other's work.
///  - Once an invocation returns non-OK or throws, or `control` fires,
///    already-queued chunks become no-ops (they complete without calling
///    `body`) and no index not yet claimed by a running chunk is processed.
///    Indices inside a chunk that has already started still run to the
///    chunk boundary, unless that chunk's own invocation failed.
///  - If `body` throws, the first exception is rethrown in the caller after
///    the join (it outranks a non-OK status). If Submit itself throws, the
///    chunks already queued are drained before that exception propagates.
///  - `control` (nullable) is tested at chunk boundaries on the pool path
///    and per index on the inline path — callers amortize by giving `body`
///    block-granular work, never per-cell work.
///  - Runs inline on the calling thread when `pool` is null, has a single
///    worker, or the range is a single index.
///  - A non-OK return does not say which indices ran: partial side effects
///    are the caller's to tolerate or discard.
///  - Trace propagation: when the caller has an obs trace armed, spans that
///    `body` creates on worker threads are collected into per-task buffers
///    and spliced into the caller's QueryTrace at the join, tagged with the
///    worker's thread id and parented under the span open at the call site.
///    (Raw Submit() has no join point and does not propagate traces.)
[[nodiscard]] Status ParallelForCancellable(
    ThreadPool* pool, size_t begin, size_t end, const QueryControl* control,
    const std::function<Status(size_t)>& body);

}  // namespace mira

#endif  // MIRA_COMMON_THREADPOOL_H_
