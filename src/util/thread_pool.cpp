#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <limits>
#include <thread>

#include "util/error.h"
#include "util/thread_annotations.h"

namespace hedra {

namespace {

/// Depth of ThreadPool item execution on this thread (any pool), so a
/// parallel_for_each issued from inside an item fails closed.
thread_local int pool_item_depth = 0;

struct ItemDepthGuard {
  ItemDepthGuard() { ++pool_item_depth; }
  ~ItemDepthGuard() { --pool_item_depth; }
};

}  // namespace

/// Shared state of one parallel_for_each call.  Workers claim items through
/// a single atomic cursor, so no item is run twice and the claim order never
/// affects results (each item owns its output slot).
struct ThreadPool::Impl {
  explicit Impl(int extra_workers) {
    threads.reserve(static_cast<std::size_t>(extra_workers));
    try {
      for (int i = 0; i < extra_workers; ++i) {
        threads.emplace_back([this] { worker_loop(); });
      }
    } catch (...) {
      // A failed spawn (thread limits) must not leave the already-started
      // workers joinable, or ~vector<std::thread> would std::terminate.
      {
        util::MutexLock lock(mutex);
        shutting_down = true;
      }
      wake.notify_all();
      for (auto& t : threads) t.join();
      throw;
    }
  }

  ~Impl() {
    {
      util::MutexLock lock(mutex);
      shutting_down = true;
    }
    wake.notify_all();
    for (auto& t : threads) t.join();
  }

  void worker_loop() HEDRA_EXCLUDES(mutex) {
    std::uint64_t last_seen_job = 0;
    for (;;) {
      {
        util::MutexLock lock(mutex);
        while (!shutting_down && job_id == last_seen_job) wake.wait(lock);
        if (shutting_down) return;
        last_seen_job = job_id;
      }
      run_items();
      if (active_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        util::MutexLock lock(mutex);
        done.notify_all();
      }
    }
  }

  /// Claims and runs items until the cursor passes `count`.  `fn` and
  /// `count` are stable for the duration of a dispatched job (set under
  /// `mutex` before the wake, cleared only after every worker drained), so
  /// the claim loop reads them lock-free.
  void run_items() HEDRA_EXCLUDES(mutex) {
    const ItemDepthGuard guard;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        (*fn)(i);
      } catch (...) {
        util::MutexLock lock(mutex);
        // Keep the smallest-index failure so reruns are reproducible even
        // when several items throw in one batch.
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }

  std::vector<std::thread> threads;
  util::Mutex mutex;
  util::CondVar wake;
  util::CondVar done;
  bool shutting_down HEDRA_GUARDED_BY(mutex) = false;

  // Per-call state.  `job_id`, `error`, `error_index` are only touched
  // under `mutex`; `fn`/`count` are published under `mutex` before `wake`
  // and read lock-free inside a job (see run_items).
  std::uint64_t job_id HEDRA_GUARDED_BY(mutex) = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> active_workers{0};
  std::exception_ptr error HEDRA_GUARDED_BY(mutex);
  std::size_t error_index HEDRA_GUARDED_BY(mutex) = 0;
};

ThreadPool::ThreadPool(int workers) : workers_(workers) {
  HEDRA_REQUIRE(workers >= 1, "thread pool needs at least one worker");
  if (workers > 1) impl_ = new Impl(workers - 1);
}

ThreadPool::~ThreadPool() { delete impl_; }

int ThreadPool::default_workers() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::parallel_for_each(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  HEDRA_REQUIRE(pool_item_depth == 0,
                "parallel_for_each may not be called from inside a pool item");
  if (count == 0) return;
  if (impl_ == nullptr) {
    // The 1-worker pool runs inline and fails on the first error.
    const ItemDepthGuard guard;
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    util::MutexLock lock(impl_->mutex);
    HEDRA_REQUIRE(impl_->fn == nullptr,
                  "parallel_for_each may not be called concurrently from "
                  "two independent threads on one pool");
    impl_->fn = &fn;
    impl_->count = count;
    impl_->cursor.store(0, std::memory_order_relaxed);
    impl_->active_workers.store(static_cast<int>(impl_->threads.size()),
                                std::memory_order_relaxed);
    impl_->error = nullptr;
    impl_->error_index = std::numeric_limits<std::size_t>::max();
    ++impl_->job_id;
  }
  impl_->wake.notify_all();
  impl_->run_items();  // the calling thread participates
  {
    util::MutexLock lock(impl_->mutex);
    while (impl_->active_workers.load(std::memory_order_acquire) != 0) {
      impl_->done.wait(lock);
    }
    impl_->fn = nullptr;
    if (impl_->error) {
      std::exception_ptr error = impl_->error;
      impl_->error = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

}  // namespace hedra
