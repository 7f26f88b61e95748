#pragma once

/// \file thread_pool.h
/// Fixed-size worker pool for the experiment engine.
///
/// The Monte-Carlo sweeps evaluate hundreds of independently seeded DAG
/// replications per parameter point; `parallel_for_each` fans those out over
/// a fixed set of workers while keeping results **deterministic**: work is
/// claimed by atomic index, every item writes only to its own output slot,
/// and reduction happens on the calling thread in index order.  Given the
/// per-replication seeding of exp/experiment.h, an N-worker run is therefore
/// bit-identical to a serial one.
///
/// Exceptions thrown by items are captured; the first one (by item index) is
/// rethrown on the calling thread after all workers have drained.

#include <cstddef>
#include <functional>

namespace hedra {

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads.  `workers == 1` is a valid
  /// degenerate pool: items run inline on the calling thread and no thread
  /// is spawned, which keeps single-job runs free of scheduling noise.
  /// Requires workers >= 1.
  explicit ThreadPool(int workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers (outstanding parallel_for_each calls finish first).
  ~ThreadPool();

  /// Number of threads that execute work, the calling thread included.
  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// Hardware concurrency, clamped to >= 1; the default for `--jobs 0`.
  [[nodiscard]] static int default_workers() noexcept;

  /// Runs fn(0) ... fn(count - 1), distributing items over the pool; the
  /// calling thread participates.  Blocks until every item completed.  If
  /// any item throws, the exception of the smallest-index failing item is
  /// rethrown here once all claimed items finished.  Not reentrant: a
  /// call issued from inside an item (of this or any other pool) throws
  /// hedra::Error — dispatching again would deadlock the one-job protocol
  /// or oversubscribe the machine, and no caller nests.  Concurrent calls
  /// from two independent (non-pool) threads are invalid too.
  void parallel_for_each(std::size_t count,
                         const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< null for the degenerate 1-worker pool
  int workers_ = 1;
};

}  // namespace hedra
