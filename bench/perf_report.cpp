/// \file perf_report.cpp
/// The repo's recorded performance baseline: times the Monte-Carlo
/// pipeline's hot kernels single-threaded and emits machine-readable JSON.
///
/// Every kernel exercises a *stable public entry point* (simulate,
/// exact::min_makespan, AnalysisCache, run_fig11, the graph algorithms), so
/// the same harness builds before and after an optimisation and the two JSON
/// files diff into a speedup table — BENCH_PR3.json in the repo root records
/// the first such pair (flat CSR snapshots + event-heap simulator +
/// incremental B&B).  CI runs `perf_report --quick` as a smoke test and
/// validates the emitted schema (scripts/validate_perf_report.py).
///
/// Kernels run single-threaded by design: the per-DAG constants measured
/// here compose multiplicatively with the experiment engine's `--jobs N`
/// fan-out.  The report still records the machine's `hardware_concurrency`
/// so a reader knows what that fan-out could use.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "analysis/batch_kernels.h"
#include "dense_dag.h"
#include "exact/bnb.h"
#include "exp/experiment.h"
#include "exp/fig11.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"
#include "sim/scheduler.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using hedra::Rng;
using hedra::graph::Dag;
using hedra::graph::NodeId;

struct Counter {
  std::string name;
  double value;
};

struct Benchmark {
  std::string name;
  std::string unit;   ///< unit of `value` (lower is better)
  double value = 0;   ///< best (minimum) over the repetitions
  int iterations = 0;
  std::vector<Counter> counters;  ///< derived rates etc. (higher is better)
};

double json_number(double v) { return v < 0 ? 0.0 : v; }

std::string to_json(const std::vector<Benchmark>& benchmarks, bool quick) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  // v2 replaced v1's "single_threaded": true with the worker threads the
  // kernels use ("jobs", 1 since the parallel exact-solver kernels went)
  // and what the machine offers.  v3 keeps the v2 keys; every bnb_* kernel
  // carries an "unproven" counter.
  os << "{\n"
     << "  \"schema\": \"hedra-perf-report-v3\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"jobs\": 1,\n"
     << "  \"hardware_concurrency\": " << hedra::ThreadPool::default_workers()
     << ",\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const Benchmark& b = benchmarks[i];
    os << "    {\"name\": \"" << b.name << "\", \"unit\": \"" << b.unit
       << "\", \"value\": " << json_number(b.value)
       << ", \"iterations\": " << b.iterations;
    if (!b.counters.empty()) {
      os << ", \"counters\": {";
      for (std::size_t c = 0; c < b.counters.size(); ++c) {
        os << "\"" << b.counters[c].name
           << "\": " << json_number(b.counters[c].value)
           << (c + 1 < b.counters.size() ? ", " : "");
      }
      os << "}";
    }
    os << "}" << (i + 1 < benchmarks.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Runs `body` `reps` times and returns the minimum wall-clock milliseconds.
template <typename Body>
double best_ms(int reps, Body&& body) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

std::vector<Dag> make_batch(int count, int num_devices, double ratio,
                            std::uint64_t seed, int min_nodes, int max_nodes) {
  hedra::exp::BatchConfig config;
  config.params = hedra::gen::HierarchicalParams::large_tasks_100_250();
  config.params.min_nodes = min_nodes;
  config.params.max_nodes = max_nodes;
  config.params.num_devices = num_devices;
  config.coff_ratio = ratio;
  config.count = count;
  config.seed = seed;
  return hedra::exp::generate_batch(config);
}

}  // namespace

int main(int argc, char** argv) {
  hedra::ArgParser parser("perf_report",
                          "times the pipeline's hot kernels and emits JSON");
  const auto* quick = parser.add_flag(
      "quick", "smoke mode: tiny workloads, one repetition (for CI)");
  // Deliberately NOT BENCH_PR3.json: that file is the committed before/after
  // baseline (a different, merged schema) and must not be clobbered by an
  // argless run from the repo root.
  const auto* out = parser.add_string("out", "perf_report.json",
                                      "output JSON path (- = stdout)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    const bool q = *quick;
    const int reps = q ? 1 : 5;
    std::vector<Benchmark> benchmarks;
    const auto record = [&](std::string name, std::string unit, double value,
                            std::vector<Counter> counters = {}) {
      benchmarks.push_back(Benchmark{std::move(name), std::move(unit), value,
                                     reps, std::move(counters)});
      const Benchmark& b = benchmarks.back();
      std::cerr << "  " << b.name << ": " << b.value << " " << b.unit << "\n";
    };

    // -- End-to-end: the fig11 unit-multiplicity sweep (PR 4), same batch
    //    evaluated under n_d ∈ {1, 2, 3} units per class.
    {
      hedra::exp::Fig11Config config;
      config.devices = 2;
      config.units = {1, 2, 3};
      config.ratios = {0.10, 0.30};
      config.cores = {2, 8};
      config.dags_per_point = q ? 2 : 6;
      config.seed = 9;
      config.jobs = 1;
      const double ms =
          best_ms(reps, [&] { (void)hedra::exp::run_fig11(config); });
      record("fig11_sweep", "ms", ms);
    }

    // -- Batched anomaly runs: simulate_with_times over ONE cached CSR
    //    snapshot per DAG (the shape the property/anomaly sweeps use since
    //    they stopped re-snapshotting per call).
    {
      const auto batch =
          make_batch(q ? 2 : 8, /*devices=*/2, 0.25, 17, 60, 120);
      // Actual times are drawn ONCE, outside the timed body, so every
      // repetition measures identical work (min-over-reps stays a valid
      // regression reference).
      hedra::Rng rng(17);
      std::vector<std::vector<hedra::graph::Time>> actuals;
      actuals.reserve(batch.size());
      for (const Dag& dag : batch) {
        actuals.push_back(hedra::sim::random_actual_times(dag, 0.3, rng));
      }
      const double ms = best_ms(reps, [&] {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          hedra::analysis::AnalysisCache cache(batch[i]);
          for (const auto policy : hedra::sim::all_policies()) {
            hedra::sim::SimConfig config;
            config.cores = 8;
            config.policy = policy;
            config.validate = false;
            (void)hedra::sim::simulate_with_times(cache.flat_view(), config,
                                                  actuals[i]);
          }
        }
      });
      record("sim_with_times_batch", "us_per_sim",
             1000.0 * ms /
                 static_cast<double>(batch.size() *
                                     hedra::sim::all_policies().size()));
    }

    // -- Simulation, per ready-queue policy (m = 8, K = 2 DAGs).
    {
      const auto batch =
          make_batch(q ? 4 : 16, /*devices=*/2, 0.25, 11, 100, 250);
      for (const auto policy : hedra::sim::all_policies()) {
        hedra::sim::SimConfig config;
        config.cores = 8;
        config.policy = policy;
        const double ms = best_ms(reps, [&] {
          for (const Dag& dag : batch) {
            (void)hedra::sim::simulated_makespan(dag, config);
          }
        });
        record(std::string("sim_") + hedra::sim::to_string(policy),
               "us_per_sim", 1000.0 * ms / static_cast<double>(batch.size()));
      }
    }

    // -- Exact solver: fig7 size classes, pure node budget.
    {
      const struct {
        const char* name;
        int m, min_nodes, max_nodes;
        std::uint64_t seed;
      } cases[] = {{"bnb_small_m2", 2, 3, 20, 21},
                   {"bnb_fig7_m8", 8, 30, 60, 22}};
      for (const auto& c : cases) {
        hedra::exp::BatchConfig batch_config;
        batch_config.params = hedra::gen::HierarchicalParams::small_tasks();
        batch_config.params.min_nodes = c.min_nodes;
        batch_config.params.max_nodes = c.max_nodes;
        batch_config.coff_ratio = 0.35;
        batch_config.count = q ? 4 : 20;
        batch_config.seed = c.seed;
        const auto batch = hedra::exp::generate_batch(batch_config);
        hedra::exact::BnbConfig solver;
        solver.max_nodes = 5'000'000;
        solver.time_limit_sec = 300.0;
        std::uint64_t nodes = 0, unproven = 0, prune_energy = 0;
        const double ms = best_ms(reps, [&] {
          nodes = unproven = prune_energy = 0;
          for (const Dag& dag : batch) {
            const auto r = hedra::exact::min_makespan(dag, c.m, solver);
            nodes += r.nodes_explored;
            unproven += r.proven_optimal ? 0 : 1;
            prune_energy += r.stats.prune_energy;
          }
        });
        // A budget-exhausting instance spends the whole budget, so the
        // time says little without the count of instances left unproven.
        record(c.name, "ms",
               ms,
               {{"nodes", static_cast<double>(nodes)},
                {"nodes_per_sec",
                 ms > 0 ? 1000.0 * static_cast<double>(nodes) / ms : 0},
                {"unproven", static_cast<double>(unproven)},
                {"prune_energy", static_cast<double>(prune_energy)}});
      }
    }

    // -- Platform RTA: per-DAG K-device bound across the paper's m grid.
    {
      const auto batch = make_batch(q ? 4 : 32, 3, 0.3, 31, 100, 250);
      const double ms = best_ms(reps, [&] {
        for (const Dag& dag : batch) {
          hedra::analysis::AnalysisCache cache(dag);
          for (const int m : {2, 4, 8, 16}) {
            (void)cache.r_platform(m);
          }
        }
      });
      record("platform_rta_cache", "us_per_dag",
             1000.0 * ms / static_cast<double>(batch.size()));
    }

    // -- SoA arena pipeline: arena batch generation, then the whole-batch
    //    K-device analysis over the arena (analyze_platform_batch).
    {
      hedra::exp::BatchConfig config;
      config.params = hedra::gen::HierarchicalParams::large_tasks_100_250();
      config.params.num_devices = 3;
      config.coff_ratio = 0.3;
      config.count = q ? 4 : 32;
      config.seed = 31;
      const auto count = static_cast<double>(config.count);
      hedra::graph::FlatDagBatch arena;
      const double arena_ms =
          best_ms(reps, [&] { arena = hedra::exp::generate_flat_batch(config); });
      record("batch_generation_arena", "us_per_dag",
             1000.0 * arena_ms / count);
      const std::vector<int> cores{2, 4, 8, 16};
      const double rta_ms = best_ms(reps, [&] {
        (void)hedra::analysis::analyze_platform_batch(arena, cores);
      });
      record("platform_rta_batch", "us_per_dag",
             1000.0 * rta_ms / static_cast<double>(arena.size()));
    }

    // -- Theorem 1 pipeline across the m grid (single-offload DAGs).
    {
      const auto batch = make_batch(q ? 4 : 32, 0, 0.2, 41, 100, 250);
      const double ms = best_ms(reps, [&] {
        for (const Dag& dag : batch) {
          hedra::analysis::AnalysisCache cache(dag);
          for (const int m : {2, 4, 8, 16}) {
            (void)cache.r_het(m);
            (void)cache.r_hom(m);
          }
        }
      });
      record("het_analysis_cache", "us_per_dag",
             1000.0 * ms / static_cast<double>(batch.size()));
    }

    // -- Graph kernels.
    {
      const auto batch = make_batch(q ? 4 : 32, 0, 0.2, 51, 100, 250);
      const double ms = best_ms(reps, [&] {
        for (const Dag& dag : batch) {
          (void)hedra::graph::CriticalPathInfo(dag);
        }
      });
      record("critical_path", "us_per_dag",
             1000.0 * ms / static_cast<double>(batch.size()));
    }
    {
      const auto dense = hedra::benchdata::make_dense_batch(q ? 2 : 8, q ? 60 : 150, 0.08, 61);
      const double closure_ms = best_ms(reps, [&] {
        for (const Dag& dag : dense) {
          (void)hedra::graph::transitive_closure(dag);
        }
      });
      record("transitive_closure", "us_per_dag",
             1000.0 * closure_ms / static_cast<double>(dense.size()));
      const double reduction_ms = best_ms(reps, [&] {
        for (const Dag& dag : dense) {
          (void)hedra::graph::transitive_reduction(dag);
        }
      });
      record("transitive_reduction", "us_per_dag",
             1000.0 * reduction_ms / static_cast<double>(dense.size()));
    }

    const std::string json = to_json(benchmarks, q);
    if (*out == "-") {
      std::cout << json;
    } else {
      std::ofstream file(*out);
      HEDRA_REQUIRE(file.good(), "cannot open output file " + *out);
      file << json;
      std::cerr << "report written to " << *out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
