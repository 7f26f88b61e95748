/// \file micro_algorithms.cpp
/// google-benchmark microbenchmarks for hedra's algorithms: DAG generation,
/// reachability, transformation (Algorithm 1), the RTA itself, simulation,
/// and the exact solver on small instances.  These quantify the cost of the
/// analysis pipeline (the paper's analysis is meant to run inside design
/// tools, so it should be fast).

#include <benchmark/benchmark.h>

#include "analysis/analysis_cache.h"
#include "analysis/batch_kernels.h"
#include "analysis/rta_heterogeneous.h"
#include "dense_dag.h"
#include "exact/bnb.h"
#include "exp/experiment.h"
#include "gen/hierarchical.h"
#include "gen/offload.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"
#include "graph/flat_dag.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace {

using hedra::Rng;
using hedra::graph::Dag;

Dag make_instance(int min_nodes, int max_nodes, std::uint64_t seed,
                  double ratio) {
  Rng rng(seed);
  hedra::gen::HierarchicalParams params;
  params.max_depth = 5;
  params.n_par = 8;
  params.min_nodes = min_nodes;
  params.max_nodes = max_nodes;
  Dag dag = hedra::gen::generate_hierarchical(params, rng);
  (void)hedra::gen::select_offload_node(dag, rng);
  (void)hedra::gen::set_offload_ratio(dag, ratio);
  return dag;
}

void BM_GenerateHierarchical(benchmark::State& state) {
  Rng rng(1);
  hedra::gen::HierarchicalParams params;
  params.max_depth = 5;
  params.n_par = 8;
  params.min_nodes = static_cast<int>(state.range(0));
  params.max_nodes = static_cast<int>(state.range(0)) * 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::gen::generate_hierarchical(params, rng));
  }
}
BENCHMARK(BM_GenerateHierarchical)->Arg(50)->Arg(100)->Arg(200);

void BM_CriticalPath(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 2, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::graph::critical_path_length(dag));
  }
}
BENCHMARK(BM_CriticalPath)->Arg(50)->Arg(200);

void BM_TransitiveClosure(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 3, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::graph::transitive_closure(dag));
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(50)->Arg(200);

void BM_TransformAlgorithm1(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 4, 0.2);
  const hedra::graph::FlatDag flat(dag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hedra::analysis::transform_for_offload(flat.view()));
  }
}
BENCHMARK(BM_TransformAlgorithm1)->Arg(50)->Arg(100)->Arg(200);

void BM_FullHeterogeneousAnalysis(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 5, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::analysis::analyze_heterogeneous(dag, 8));
  }
}
BENCHMARK(BM_FullHeterogeneousAnalysis)->Arg(50)->Arg(100)->Arg(200);

// The figure sweeps evaluate every DAG under m = 2/4/8/16.  The next two
// benchmarks measure that inner loop before and after the AnalysisCache:
// uncached re-validates, re-transforms and re-walks the graphs per m (the
// pre-engine run_fig9 path); cached pays for the graph work once and serves
// all four core counts from arithmetic.
void BM_MultiCoreAnalysisUncached(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 8, 0.2);
  for (auto _ : state) {
    for (const int m : {2, 4, 8, 16}) {
      benchmark::DoNotOptimize(hedra::analysis::analyze_heterogeneous(dag, m));
    }
  }
}
BENCHMARK(BM_MultiCoreAnalysisUncached)->Arg(50)->Arg(100)->Arg(200);

void BM_MultiCoreAnalysisCached(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 8, 0.2);
  for (auto _ : state) {
    hedra::analysis::AnalysisCache cache(dag);
    for (const int m : {2, 4, 8, 16}) {
      benchmark::DoNotOptimize(cache.r_het(m));
      benchmark::DoNotOptimize(cache.r_hom(m));
    }
  }
}
BENCHMARK(BM_MultiCoreAnalysisCached)->Arg(50)->Arg(100)->Arg(200);

void BM_SimulateBreadthFirst(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 6, 0.2);
  hedra::sim::SimConfig config;
  config.cores = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::sim::simulated_makespan(dag, config));
  }
}
BENCHMARK(BM_SimulateBreadthFirst)->Arg(50)->Arg(200);

// One benchmark per ready-queue policy over a shared CSR snapshot with
// validation off — the exact shape of the fig10 Monte-Carlo inner loop.
void BM_SimulatePolicySweepShape(benchmark::State& state) {
  const Dag dag = make_instance(100, 250, 6, 0.2);
  const hedra::graph::FlatDag flat(dag);
  const auto policy =
      hedra::sim::all_policies()[static_cast<std::size_t>(state.range(0))];
  hedra::sim::SimConfig config;
  config.cores = 8;
  config.policy = policy;
  config.validate = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hedra::sim::simulated_makespan(flat.view(), config));
  }
  state.SetLabel(hedra::sim::to_string(policy));
}
BENCHMARK(BM_SimulatePolicySweepShape)->DenseRange(0, 4);

void BM_FlatDagBuild(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 9, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::graph::FlatDag(dag));
  }
}
BENCHMARK(BM_FlatDagBuild)->Arg(50)->Arg(200);

void BM_PlatformRtaCached(benchmark::State& state) {
  const Dag dag =
      make_instance(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 2, 10, 0.2);
  for (auto _ : state) {
    hedra::analysis::AnalysisCache cache(dag);
    for (const int m : {2, 4, 8, 16}) {
      benchmark::DoNotOptimize(cache.r_platform(m));
    }
  }
}
BENCHMARK(BM_PlatformRtaCached)->Arg(50)->Arg(200);

void BM_TransitiveReduction(benchmark::State& state) {
  // Dense random id-ordered DAG: plenty of redundant edges, the workload
  // the sorted-lookup rewrite targets.
  const Dag dag = std::move(hedra::benchdata::make_dense_batch(
      1, static_cast<int>(state.range(0)), 0.1, 11)[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::graph::transitive_reduction(dag));
  }
}
BENCHMARK(BM_TransitiveReduction)->Arg(60)->Arg(150);

// The SoA arena pipeline: whole-batch generation into one arena, and the
// batched analysis kernels over the arena's flat arrays.
hedra::exp::BatchConfig arena_batch_config(int count) {
  hedra::exp::BatchConfig config;
  config.params = hedra::gen::HierarchicalParams::large_tasks_100_250();
  config.params.num_devices = 3;
  config.coff_ratio = 0.3;
  config.count = count;
  config.seed = 31;
  return config;
}

void BM_BatchGenerateArena(benchmark::State& state) {
  const auto config = arena_batch_config(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::exp::generate_flat_batch(config));
  }
}
BENCHMARK(BM_BatchGenerateArena)->Arg(8)->Arg(32);

void BM_BatchPlatformRta(benchmark::State& state) {
  const auto batch = hedra::exp::generate_flat_batch(
      arena_batch_config(static_cast<int>(state.range(0))));
  const std::vector<int> cores{2, 4, 8, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hedra::analysis::analyze_platform_batch(batch, cores));
  }
}
BENCHMARK(BM_BatchPlatformRta)->Arg(8)->Arg(32);

void BM_ExactSolverSmall(benchmark::State& state) {
  const Dag dag = make_instance(8, static_cast<int>(state.range(0)), 7, 0.3);
  hedra::exact::BnbConfig config;
  config.time_limit_sec = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hedra::exact::min_makespan(dag, 2, config));
  }
}
BENCHMARK(BM_ExactSolverSmall)->Arg(12)->Arg(20);

// Node throughput of the B&B search: a batch with real search gaps, pure
// node budget, reported as nodes/second.
void BM_ExactSolverNodeThroughput(benchmark::State& state) {
  hedra::exp::BatchConfig batch_config;
  batch_config.params = hedra::gen::HierarchicalParams::small_tasks();
  batch_config.params.min_nodes = 3;
  batch_config.params.max_nodes = 20;
  batch_config.coff_ratio = 0.35;
  batch_config.count = 10;
  batch_config.seed = 21;
  const auto batch = hedra::exp::generate_batch(batch_config);
  hedra::exact::BnbConfig config;
  config.max_nodes = 500'000;
  config.time_limit_sec = 300.0;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    for (const Dag& dag : batch) {
      const auto result = hedra::exact::min_makespan(dag, 2, config);
      nodes += result.nodes_explored;
      benchmark::DoNotOptimize(result.makespan);
    }
  }
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExactSolverNodeThroughput);

}  // namespace
