#include "engine/thread_pool.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace streamflow {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned detected = std::thread::hardware_concurrency();
  return detected > 0 ? detected : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  SF_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  threads_.reserve(threads - 1);
  try {
    for (std::size_t worker = 1; worker < threads; ++worker)
      threads_.emplace_back([this, worker] { worker_loop(worker); });
  } catch (...) {
    stop();  // join what did start before the vector destroys it
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void ThreadPool::for_each(std::size_t count, const Body& body) {
  if (threads_.empty() || count <= 1) {
    // In index order: the first exception is the lowest failing index.
    for (std::size_t k = 0; k < count; ++k) body(0, k);
    return;
  }
  {
    MutexLock lock(mutex_);
    SF_REQUIRE(body_ == nullptr,
               "ThreadPool::for_each is neither re-entrant nor concurrent");
    body_ = &body;
    count_ = count;
    next_ = 0;
  }
  work_available_.notify_all();
  drain(0);
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (!work_done()) all_done_.wait(mutex_);
    body_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::drain(std::size_t worker) {
  for (;;) {
    const Body* body = nullptr;
    std::size_t k = 0;
    {
      MutexLock lock(mutex_);
      if (!claimable()) return;
      body = body_;
      k = next_++;
      ++running_;
    }
    std::exception_ptr error;
    try {
      (*body)(worker, k);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(mutex_);
    if (error) {
      // Every index below k is already claimed, so stopping the claims here
      // cannot hide a lower failure.
      next_ = count_;
      if (!error_ || k < error_index_) {
        error_index_ = k;
        error_ = std::move(error);
      }
    }
    --running_;
    if (work_done()) all_done_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  for (;;) {
    {
      MutexLock lock(mutex_);
      while (!stopping_ && !claimable()) work_available_.wait(mutex_);
      if (stopping_) return;
    }
    drain(worker);
  }
}

}  // namespace streamflow
