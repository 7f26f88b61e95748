#pragma once

/// \file runner.h
/// The unified experiment engine behind every §5 figure and study.
///
/// All evaluation sweeps share one Monte-Carlo recipe: for each point of a
/// parameter grid, generate a batch of random heterogeneous DAGs, evaluate
/// every DAG under each core count m, and aggregate the per-DAG samples
/// into one row per (point, m) cell.  `Runner::sweep` owns that recipe —
/// batch generation, per-DAG fan-out over a thread pool, and deterministic
/// row aggregation — so a figure is nothing but a grid plus two lambdas:
///
///   Runner runner(config.jobs);
///   auto rows = runner.sweep(points,
///       [](analysis::AnalysisCache& cache, int m) { return sample; },
///       [](const SweepPoint& p, int m, const std::vector<Sample>& s) {
///         return row; });
///
/// Determinism: batch seeds derive from the master seed through the same
/// RNG fork chain used for replications (never arithmetic offsets, so grid
/// points can never collide), every DAG is evaluated from its own
/// independently seeded stream into its own output slot, and rows are
/// reduced on the calling thread in grid order.  `--jobs N` output is
/// therefore bit-identical to `--jobs 1` (enforced by tests/exp) —
/// provided `per_dag` is itself deterministic.  A wall-clock-budgeted
/// callback (e.g. exact::BnbConfig::time_limit_sec in fig7) can explore
/// less under CPU contention, so its samples may vary with `--jobs`; pin
/// `--jobs 1` or use a pure node budget when exact replication matters.
///
/// The per-DAG callback receives an AnalysisCache so the transform,
/// topological order, critical paths and the K-device bound's measured
/// quantities are computed once per DAG and shared across all m values of
/// the point; the bound-vs-simulation figures (fig10/fig11) take their
/// bound from cache.r_platform(m) inside the callback.

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "analysis/analysis_cache.h"
#include "exp/experiment.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace hedra::exp {

/// One grid point: a batch specification plus the core counts to evaluate.
struct SweepPoint {
  BatchConfig batch;        ///< fully specified, including its forked seed
  std::vector<int> cores;   ///< m values evaluated on this batch
  double ratio = 0.0;       ///< annotation: batch.coff_ratio
};

/// The common ratio × cores grid shape of figs 6, 8 and 9.
struct GridSpec {
  std::vector<double> ratios;
  std::vector<int> cores;
  gen::HierarchicalParams params;
  int dags_per_point = 100;
  std::uint64_t seed = 42;
};

/// Derives `count` independent batch seeds from `master_seed` through the
/// replication fork chain.  This replaces the historical
/// `seed + 0x1000 * index` scheme, whose batches collided whenever two
/// sweeps used master seeds an offset multiple of 0x1000 apart.
[[nodiscard]] std::vector<std::uint64_t> batch_seeds(std::uint64_t master_seed,
                                                     std::size_t count);

/// Expands a GridSpec into ratio-major sweep points with forked seeds.
[[nodiscard]] std::vector<SweepPoint> make_grid(const GridSpec& spec);

class Runner {
 public:
  /// `jobs` worker threads; 1 runs everything inline on the caller, and
  /// jobs <= 0 selects ThreadPool::default_workers().
  explicit Runner(int jobs = 1);

  [[nodiscard]] int jobs() const noexcept { return pool_.workers(); }

  /// Deadline checked between grid points (never inside one: a point's
  /// fan-out runs to completion so the emitted rows are whole cells).  On
  /// expiry the sweep returns the rows finished so far and last_outcome()
  /// reports kBudgetExhausted — callers distinguish a truncated grid from a
  /// completed one instead of silently consuming fewer rows.
  void set_deadline(util::Deadline deadline) noexcept { deadline_ = deadline; }

  /// Outcome of the most recent sweep* call on this runner.
  [[nodiscard]] util::Outcome last_outcome() const noexcept {
    return last_outcome_;
  }

  /// The generic core of sweep(): any point type, any batch item type.
  /// `make_batch(point) -> std::vector<Item>` runs serially on the calling
  /// thread (generation owns the RNG fork chain, so it must not race);
  /// `per_item(item, point) -> Sample` fans out over the pool, every item
  /// writing only its own slot; `reduce(point, samples) -> Row` runs on the
  /// calling thread in grid order.  Exactly the determinism contract of
  /// sweep(), so `--jobs N` output stays bit-identical to `--jobs 1`
  /// provided per_item is deterministic.  The taskset-level fig12 sweep
  /// builds on this directly (its batch items are whole task sets, not
  /// DAGs, and each point carries a single platform).
  template <typename Point, typename MakeBatch, typename PerItem,
            typename Reduce>
  auto sweep_items(const std::vector<Point>& points, MakeBatch&& make_batch,
                   PerItem&& per_item, Reduce&& reduce) {
    using Batch = std::invoke_result_t<MakeBatch&, const Point&>;
    using Item = typename Batch::value_type;
    using Sample = std::invoke_result_t<PerItem&, Item&, const Point&>;
    using Row =
        std::invoke_result_t<Reduce&, const Point&, const std::vector<Sample>&>;
    std::vector<Row> rows;
    rows.reserve(points.size());
    last_outcome_ = util::Outcome::kComplete;
    for (const Point& point : points) {
      if (point_cut()) break;
      Batch batch = make_batch(point);
      std::vector<Sample> samples(batch.size());
      pool_.parallel_for_each(batch.size(), [&](std::size_t i) {
        samples[i] = per_item(batch[i], point);
      });
      rows.push_back(reduce(point, samples));
    }
    return rows;
  }

  /// Runs the full sweep.  `per_dag(cache, m) -> Sample` is called for every
  /// (DAG, m) pair, all m values of a DAG on the same worker and cache;
  /// `reduce(point, m, samples) -> Row` aggregates each cell on the calling
  /// thread, with `samples` in replication order.  Rows come back
  /// point-major, m-minor — the order the figures print.
  ///
  /// Batches are generated as one SoA arena (generate_flat_batch) and every
  /// cache binds to its arena slice: the platform-bound path runs straight
  /// over flat arrays, and only callbacks that force the τ ⇒ τ' transform
  /// (fig6/8/9) materialise a Dag — lazily, once, equal to
  /// generate_batch(point.batch)[i].
  template <typename PerDag, typename Reduce>
  auto sweep(const std::vector<SweepPoint>& points, PerDag&& per_dag,
             Reduce&& reduce) {
    using Sample =
        std::invoke_result_t<PerDag&, analysis::AnalysisCache&, int>;
    using Row = std::invoke_result_t<Reduce&, const SweepPoint&, int,
                                     const std::vector<Sample>&>;
    std::vector<Row> rows;
    last_outcome_ = util::Outcome::kComplete;
    for (const SweepPoint& point : points) {
      if (point_cut()) break;
      const graph::FlatDagBatch batch = generate_flat_batch(point.batch);
      std::vector<std::vector<Sample>> samples(
          point.cores.size(), std::vector<Sample>(batch.size()));
      pool_.parallel_for_each(batch.size(), [&](std::size_t di) {
        analysis::AnalysisCache cache(batch, di);
        for (std::size_t mi = 0; mi < point.cores.size(); ++mi) {
          samples[mi][di] = per_dag(cache, point.cores[mi]);
        }
      });
      for (std::size_t mi = 0; mi < point.cores.size(); ++mi) {
        rows.push_back(reduce(point, point.cores[mi], samples[mi]));
      }
    }
    return rows;
  }

 private:
  /// Point-boundary budget check (and the sweep's fault seam — it runs on
  /// the calling thread, so an injected throw propagates to the caller
  /// instead of escaping a pool worker).  True = stop emitting points.
  bool point_cut() {
    HEDRA_FAULT("exp.sweep.point");
    if (deadline_.expired()) {
      last_outcome_ = util::Outcome::kBudgetExhausted;
      return true;
    }
    return false;
  }

  ThreadPool pool_;
  util::Deadline deadline_;
  util::Outcome last_outcome_ = util::Outcome::kComplete;
};

/// Summary helpers shared by the figure shape scans (rows must expose `m`
/// and `ratio`).

/// Ratio of the first row (grid order) of core count m satisfying `pred`;
/// NaN if none — the "crossover" every figure summary quotes.
template <typename Row, typename Pred>
[[nodiscard]] double crossover_ratio(const std::vector<Row>& rows, int m,
                                     Pred pred) {
  for (const Row& row : rows) {
    if (row.m == m && pred(row)) return row.ratio;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Row of core count m maximising `key`; nullptr when m has no rows.
template <typename Row, typename Key>
[[nodiscard]] const Row* peak_row(const std::vector<Row>& rows, int m,
                                  Key key) {
  const Row* best = nullptr;
  for (const Row& row : rows) {
    if (row.m == m && (best == nullptr || key(row) > key(*best))) best = &row;
  }
  return best;
}

}  // namespace hedra::exp
