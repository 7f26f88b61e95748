#include <gtest/gtest.h>

#include "analysis/analysis_cache.h"
#include "analysis/platform_rta.h"
#include "analysis/rta_heterogeneous.h"
#include "common/fixtures.h"
#include "common/multi_offload.h"
#include "exact/bnb.h"
#include "exact/bounds.h"
#include "gen/hierarchical.h"
#include "gen/multi_device.h"
#include "gen/offload.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"
#include "sim/scheduler.h"
#include "util/rng.h"

/// Randomised soundness sweep: the analytical bounds of the paper must
/// dominate every work-conserving execution the simulator can produce, and
/// the ordering  len <= OPT <= simulated <= bound  must hold throughout.
/// A violation of any of these would mean a transcription error in
/// Algorithm 1 / Theorem 1 — this is the test that would catch it.

namespace hedra {
namespace {

struct Instance {
  graph::Dag dag;
  int m;
};

std::vector<Instance> random_instances(std::uint64_t seed, int count,
                                       gen::HierarchicalParams params,
                                       double min_ratio, double max_ratio) {
  Rng master(seed);
  std::vector<Instance> out;
  for (int i = 0; i < count; ++i) {
    Rng rng = master.fork();
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    (void)gen::select_offload_node(dag, rng);
    const double ratio =
        min_ratio + (max_ratio - min_ratio) * rng.uniform_real();
    (void)gen::set_offload_ratio(dag, ratio);
    const int m = static_cast<int>(rng.uniform_int(1, 16));
    out.push_back(Instance{std::move(dag), m});
  }
  return out;
}

gen::HierarchicalParams medium_params() {
  gen::HierarchicalParams params;
  params.max_depth = 4;
  params.n_par = 5;
  params.min_nodes = 10;
  params.max_nodes = 80;
  params.wcet_max = 50;
  return params;
}

const std::vector<sim::Policy> kAllPolicies{
    sim::Policy::kBreadthFirst, sim::Policy::kDepthFirst,
    sim::Policy::kCriticalPathFirst, sim::Policy::kIndexOrder,
    sim::Policy::kRandom};

class SoundnessSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoundnessSweep, RhomDominatesEveryWorkConservingExecution) {
  for (const auto& inst :
       random_instances(GetParam(), 12, medium_params(), 0.01, 0.6)) {
    const Frac r_hom = analysis::rta_homogeneous(inst.dag, inst.m);
    for (const auto policy : kAllPolicies) {
      sim::SimConfig config;
      config.cores = inst.m;
      config.policy = policy;
      const graph::Time observed = sim::simulated_makespan(inst.dag, config);
      EXPECT_LE(Frac(observed), r_hom)
          << "policy=" << sim::to_string(policy) << " m=" << inst.m;
    }
  }
}

TEST_P(SoundnessSweep, RhetDominatesEveryExecutionOfTransformedTask) {
  for (const auto& inst :
       random_instances(GetParam() + 1000, 12, medium_params(), 0.01, 0.6)) {
    const auto analysis = analysis::analyze_heterogeneous(inst.dag, inst.m);
    for (const auto policy : kAllPolicies) {
      sim::SimConfig config;
      config.cores = inst.m;
      config.policy = policy;
      const graph::Time observed =
          sim::simulated_makespan(analysis.transformed, config);
      EXPECT_LE(Frac(observed), analysis.r_het)
          << "policy=" << sim::to_string(policy) << " m=" << inst.m
          << " scenario=" << to_string(analysis.scenario);
    }
  }
}

TEST_P(SoundnessSweep, MultiOffloadBoundDominatesExecutions) {
  Rng master(GetParam() + 2000);
  gen::HierarchicalParams params = medium_params();
  for (int i = 0; i < 8; ++i) {
    Rng rng = master.fork();
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    // Promote several random internal nodes to offload.
    int promoted = 0;
    for (graph::NodeId v = 0; v < dag.num_nodes() && promoted < 3; ++v) {
      if (dag.in_degree(v) > 0 && dag.out_degree(v) > 0 &&
          rng.bernoulli(0.15)) {
        dag.set_device(v, 1);
        ++promoted;
      }
    }
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Frac bound = testing::rta_multi_offload(dag, m);
    for (const auto policy : kAllPolicies) {
      sim::SimConfig config;
      config.cores = m;
      config.policy = policy;
      EXPECT_LE(Frac(sim::simulated_makespan(dag, config)), bound)
          << "m=" << m << " policy=" << sim::to_string(policy);
    }
  }
}

TEST_P(SoundnessSweep, PlatformBoundDominatesEveryPolicyOnEveryDevice) {
  // The K-device chain bound must dominate every work-conserving execution
  // of every policy — including early-completion runs (simulate_with_times),
  // which are exactly the anomaly-prone executions Graham's argument covers.
  Rng master(GetParam() + 6000);
  gen::HierarchicalParams params = medium_params();
  for (const int num_devices : {1, 2, 3}) {
    params.num_devices = num_devices;
    params.offloads_per_device = 2;
    for (int i = 0; i < 4; ++i) {
      Rng rng = master.fork();
      const double ratio = 0.05 + 0.5 * rng.uniform_real();
      const graph::Dag dag = gen::generate_multi_device(params, ratio, rng);
      const int m = static_cast<int>(rng.uniform_int(1, 16));
      // One CSR snapshot serves all 5 policies × (WCET + early) runs.
      analysis::AnalysisCache cache(dag);
      const Frac bound = cache.r_platform(m);
      for (const auto policy : sim::all_policies()) {
        sim::SimConfig config;
        config.cores = m;
        config.policy = policy;
        EXPECT_LE(Frac(sim::simulated_makespan(cache.flat_view(), config)),
                  bound)
            << "K=" << num_devices << " m=" << m
            << " policy=" << sim::to_string(policy);
        const auto actual = sim::random_actual_times(dag, 0.3, rng);
        const graph::Time early =
            sim::simulate_with_times(cache.flat_view(), config, actual)
                .makespan();
        EXPECT_LE(Frac(early), bound)
            << "early completion, K=" << num_devices << " m=" << m
            << " policy=" << sim::to_string(policy);
      }
    }
  }
}

TEST_P(SoundnessSweep, MultiUnitPlatformBoundDominatesEveryPolicy) {
  // ACCEPTANCE CRITERION (PR 4): the generalised bound R_plat(n_d) —
  // vol_d/n_d device terms plus the mixed (units−1)/units weighted chain —
  // must dominate every work-conserving execution on a platform with n_d
  // units per class, for units ∈ {2, 3}, K ∈ {1, 2, 3}, every ready-queue
  // policy, and the anomaly-prone early-completion runs of
  // simulate_with_times.
  Rng master(GetParam() + 7000);
  gen::HierarchicalParams params = medium_params();
  for (const int num_devices : {1, 2, 3}) {
    params.num_devices = num_devices;
    params.offloads_per_device = 2;
    for (const int units : {2, 3}) {
      for (int i = 0; i < 3; ++i) {
        Rng rng = master.fork();
        const double ratio = 0.05 + 0.5 * rng.uniform_real();
        const graph::Dag dag = gen::generate_multi_device(params, ratio, rng);
        const int m = static_cast<int>(rng.uniform_int(1, 16));
        const std::vector<int> device_units(
            static_cast<std::size_t>(num_devices), units);
        analysis::AnalysisCache cache(dag);
        const Frac bound = cache.r_platform(m, device_units);
        // The multiplicity bound never exceeds the single-unit bound, and
        // both dominate every simulated schedule on the multi-unit platform.
        EXPECT_LE(bound, cache.r_platform(m));
        for (const auto policy : sim::all_policies()) {
          sim::SimConfig config;
          config.cores = m;
          config.policy = policy;
          config.device_units = device_units;
          EXPECT_LE(Frac(sim::simulated_makespan(cache.flat_view(), config)),
                  bound)
              << "K=" << num_devices << " units=" << units << " m=" << m
              << " policy=" << sim::to_string(policy);
          const auto actual = sim::random_actual_times(dag, 0.3, rng);
          const graph::Time early =
              sim::simulate_with_times(cache.flat_view(), config, actual)
                  .makespan();
          EXPECT_LE(Frac(early), bound)
              << "early completion, K=" << num_devices << " units=" << units
              << " m=" << m << " policy=" << sim::to_string(policy);
        }
      }
    }
  }
}

TEST_P(SoundnessSweep, OrderingLenOptSimBound) {
  gen::HierarchicalParams params;
  params.max_depth = 3;
  params.n_par = 4;
  params.min_nodes = 5;
  params.max_nodes = 25;
  params.wcet_max = 30;
  for (const auto& inst :
       random_instances(GetParam() + 3000, 6, params, 0.05, 0.5)) {
    const int m = std::min(inst.m, 4);
    const graph::Time len = graph::critical_path_length(inst.dag);
    exact::BnbConfig solver;
    solver.time_limit_sec = 5.0;
    const auto opt = exact::min_makespan(inst.dag, m, solver);
    sim::SimConfig config;
    config.cores = m;
    const graph::Time simulated = sim::simulated_makespan(inst.dag, config);
    const auto analysis = analysis::analyze_heterogeneous(inst.dag, m);

    EXPECT_LE(len, opt.makespan);
    EXPECT_LE(exact::makespan_lower_bound(inst.dag, m), opt.makespan);
    EXPECT_LE(opt.makespan, simulated);
    EXPECT_LE(Frac(simulated), analysis.r_hom);
    // Any execution of τ' is a legal execution of τ, so OPT(τ) <= R_het(τ').
    EXPECT_LE(Frac(opt.makespan), analysis.r_het);
  }
}

TEST_P(SoundnessSweep, TransformInvariants) {
  for (const auto& inst :
       random_instances(GetParam() + 4000, 15, medium_params(), 0.005, 0.7)) {
    analysis::AnalysisCache cache(inst.dag);
    const auto& result = cache.transform();
    const graph::Dag& transformed = cache.transformed();
    // Volume preserved; critical path can only grow.
    EXPECT_EQ(transformed.volume(), inst.dag.volume());
    EXPECT_GE(graph::critical_path_length(transformed),
              graph::critical_path_length(inst.dag));
    // G_par partitions: parallel nodes + Pred + Succ + v_off = V.
    EXPECT_EQ(result.gpar.count() + result.pred.count() + result.succ.count() +
                  1,
              inst.dag.num_nodes());
    // v_sync is the single gateway: every G_par node descends from it.
    const auto reach = graph::descendants(transformed, result.vsync);
    for (const auto v : result.gpar.to_indices()) {
      EXPECT_TRUE(reach.test(v));
    }
  }
}

TEST_P(SoundnessSweep, Scenario1ImpliesGParOutlastsOffload) {
  // Theorem 1's proof for Eq. 2 relies on len(G_par) > C_off whenever v_off
  // is off the critical path of G'.
  for (const auto& inst :
       random_instances(GetParam() + 5000, 15, medium_params(), 0.005, 0.7)) {
    const auto analysis = analysis::analyze_heterogeneous(inst.dag, inst.m);
    if (analysis.scenario == analysis::Scenario::kS1) {
      EXPECT_GT(analysis.len_gpar, analysis.c_off);
    }
    // Note: the converse does NOT hold — v_off can be critical through a
    // long Succ(v_off) suffix even when some G_par path exceeds C_off.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace hedra
