// Fixed-size thread pool with one operation, for_each: the single fan-out
// loop of the engine. The experiment runner, the portfolio and island
// searches, the batch axis and the serve loop all go through it, so the
// order work fans out in and the error a caller sees are decided here and
// nowhere else.
//
// Determinism recipe. for_each enforces its half:
//  * indices are claimed in increasing order, each by one worker, and
//    for_each returns only after every claimed index has finished;
//  * when bodies throw, no further index is claimed and the exception of
//    the LOWEST failing index is rethrown — every index below it was
//    claimed first, so the reported error never depends on timing, and a
//    pool of size 1 throws exactly what a plain serial loop would.
// Callers keep the other half: the body for index k writes only k's own
// output slot, draws randomness only from streams keyed by k (never by
// `worker`), and the caller reduces the slots serially in index order after
// for_each returns. `worker` (< size()) selects per-worker scratch — such as
// one warm AnalysisContext per worker — whose state never reaches a result.
//
// Threads: a pool of size N spawns N - 1 threads; the thread calling
// for_each works as worker 0. A pool of size 1 spawns nothing, and a call
// with count <= 1 runs on the calling thread without waking a worker, so a
// serial caller pays no thread cost. for_each must not be called
// concurrently on one pool, nor from inside a body. Bodies run concurrently:
// what they share must be immutable (e.g. one Instance) or sliced per index
// or per worker.
//
// The locking contract is MACHINE-CHECKED: every mutable member is
// SF_GUARDED_BY(mutex_) and every helper that assumes the lock is
// SF_REQUIRES(mutex_), enforced by `clang -Wthread-safety
// -Werror=thread-safety` (the CI clang job; GCC compiles the annotations
// away). Local spot-check of the contract, from the repo root:
//
//   CXX=clang++ cmake -B build-clang -S . && cmake --build build-clang
//
// — then delete the SF_REQUIRES(mutex_) on `work_done()` below and watch
// the build fail (the body reads guarded members without the capability;
// CI automates exactly this mutation). Deleting an SF_GUARDED_BY instead
// WEAKENS the analysis rather than breaking the build — accesses to that
// member simply stop being checked — which is why the lint forbids raw
// std::mutex: the guard annotations must at least exist for the analysis
// to have anything to enforce. To see a GUARDED_BY fire, add `next_ = 0;`
// outside any MutexLock scope and rebuild with clang.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace streamflow {

/// Worker count for a requested `threads` option: 0 means
/// std::thread::hardware_concurrency(), and the result is at least 1.
std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// The body of one index: body(worker, k) with worker < size().
  using Body = std::function<void(std::size_t worker, std::size_t k)>;

  /// A pool of `threads` workers (at least 1), the caller of for_each
  /// included: spawns threads - 1 threads.
  explicit ThreadPool(std::size_t threads);

  /// Joins the spawned threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size() + 1; }

  /// Runs body(worker, k) once for every k in [0, count) and blocks until
  /// all have finished. If bodies throw, indices not yet claimed are
  /// skipped and the exception of the lowest failing k is rethrown.
  void for_each(std::size_t count, const Body& body) SF_EXCLUDES(mutex_);

 private:
  void worker_loop(std::size_t worker) SF_EXCLUDES(mutex_);

  /// Claims and runs indices of the current job until none is left.
  void drain(std::size_t worker) SF_EXCLUDES(mutex_);

  /// Stops and joins the spawned threads.
  void stop() SF_EXCLUDES(mutex_);

  /// True when the current job has an unclaimed index.
  bool claimable() const SF_REQUIRES(mutex_) {
    return body_ != nullptr && next_ < count_;
  }

  /// True when the current job has no unclaimed index and no body running —
  /// the for_each wait predicate and the `all_done_` notification condition.
  bool work_done() const SF_REQUIRES(mutex_) {
    return next_ >= count_ && running_ == 0;
  }

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  const Body* body_ SF_GUARDED_BY(mutex_) = nullptr;  // null between jobs
  std::size_t count_ SF_GUARDED_BY(mutex_) = 0;
  std::size_t next_ SF_GUARDED_BY(mutex_) = 0;     // next index to claim
  std::size_t running_ SF_GUARDED_BY(mutex_) = 0;  // bodies in flight
  std::size_t error_index_ SF_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ SF_GUARDED_BY(mutex_);
  bool stopping_ SF_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  // immutable after construction
};

}  // namespace streamflow
