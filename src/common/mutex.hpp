// Annotated mutex wrappers: the ONLY locking primitives this repo uses.
//
// `Mutex` is `std::mutex` carrying the Clang Thread Safety Analysis
// `capability` attribute, so members can be declared `SF_GUARDED_BY(mutex_)`
// and helpers `SF_REQUIRES(mutex_)`; `MutexLock` is the scoped acquisition;
// `CondVar` is a condition variable that waits on a `Mutex` directly (via
// `std::condition_variable_any`) and is annotated as requiring the mutex —
// the analysis treats the capability as held across the wait, which matches
// the caller's view (the predicate re-check always runs under the lock).
//
// Raw `std::mutex` declarations are rejected by the `raw-mutex` lint rule:
// they silently opt out of the static locking contract. Condition-variable
// loops should be written as explicit `while (!pred) cv.wait(mutex_);` —
// the predicate then stays inside the annotated caller instead of inside a
// lambda the analysis cannot attribute the lock to.
#pragma once

#include <condition_variable>
#include <mutex>  // lint:allow(raw-mutex): the one annotated wrapper over the raw primitive

#include "common/thread_annotations.hpp"

namespace streamflow {

class CondVar;

/// A `std::mutex` that is a Thread Safety Analysis capability. Same cost,
/// same semantics; the annotations exist only at compile time.
class SF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SF_ACQUIRE() { raw_.lock(); }
  void unlock() SF_RELEASE() { raw_.unlock(); }

 private:
  friend class CondVar;
  std::mutex raw_;  // lint:allow(raw-mutex): wrapped payload of the annotated capability
};

/// RAII scoped acquisition of a Mutex (the annotated `std::lock_guard`).
class SF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SF_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SF_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over `Mutex`. `wait` requires the mutex: callers keep
/// the annotated lock scope around the whole wait loop, and the temporary
/// release inside the system wait is invisible to the analysis (standard
/// treatment — the caller can never observe the capability dropped).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, blocks until notified, reacquires. Spurious
  /// wakeups are possible: always call from a `while (!pred)` loop.
  void wait(Mutex& mutex) SF_REQUIRES(mutex) { raw_.wait(mutex); }

  void notify_all() { raw_.notify_all(); }

 private:
  // condition_variable_any accepts any BasicLockable, so it waits on the
  // annotated Mutex itself — no unannotated unique_lock escape hatch.
  std::condition_variable_any raw_;
};

}  // namespace streamflow
