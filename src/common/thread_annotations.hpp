// Clang Thread Safety Analysis macros (no-ops on every other compiler).
//
// These wrap the `capability`-family attributes so locking contracts live in
// the type system instead of in prose: a member annotated
// `SF_GUARDED_BY(mutex_)` cannot be touched without holding `mutex_`, and a
// helper annotated `SF_REQUIRES(mutex_)` cannot be called without it — both
// enforced at compile time by `clang -Wthread-safety` (the CI clang job adds
// `-Werror=thread-safety`, so a violated contract is a build break, not a
// warning). GCC and MSVC see empty macros and compile identical code.
//
// Use them through `streamflow::Mutex` / `streamflow::MutexLock`
// (common/mutex.hpp) — the `raw-mutex` lint rule rejects bare `std::mutex`
// declarations precisely because the raw type cannot carry these contracts.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SF_THREAD_ANNOTATION
#define SF_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define SF_CAPABILITY(x) SF_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SF_SCOPED_CAPABILITY SF_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SF_GUARDED_BY(x) SF_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself is
/// not).
#define SF_PT_GUARDED_BY(x) SF_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability and holds it on return.
#define SF_ACQUIRE(...) SF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability; the caller must hold it.
#define SF_RELEASE(...) SF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must hold the capability for the duration of the call (the
/// function neither acquires nor releases it).
#define SF_REQUIRES(...) SF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention for functions
/// that acquire it themselves).
#define SF_EXCLUDES(...) SF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (informs the analysis
/// without acquiring).
#define SF_ASSERT_CAPABILITY(x) SF_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define SF_RETURN_CAPABILITY(x) SF_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the contract cannot be expressed.
#define SF_NO_THREAD_SAFETY_ANALYSIS \
  SF_THREAD_ANNOTATION(no_thread_safety_analysis)
