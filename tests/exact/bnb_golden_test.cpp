/// Exact-solver regressions for the incremental B&B rewrite:
///  - golden results: makespan / proven_optimal / root bound / heuristic
///    bound on the pinned fig7-size batches must match the values the
///    pre-rewrite solver produced (tests/golden/bnb_results.txt), and
///  - the search tree itself: an FNV-1a hash over every instance's result
///    and search counters, so a rewrite of the engine's internals must
///    explore the same nodes in the same order, and
///  - randomized equivalence: on small instances the solver must agree with
///    the independent exhaustive brute_force enumeration.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/golden_batch.h"
#include "exact/brute_force.h"
#include "exp/experiment.h"

namespace hedra {
namespace {

TEST(BnbGoldenTest, ResultsMatchCommittedGoldens) {
  const std::string path =
      std::string(HEDRA_TEST_DATA_DIR) + "/golden/bnb_results.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(goldens::golden_bnb_text(), buffer.str())
      << "B&B results drifted; the search may be reorganised freely "
         "(nodes_explored is not pinned) but optimal makespans, proven "
         "flags and root/heuristic bounds must not change";
}

/// FNV-1a over the outcome and every search counter of each solve, in turn.
/// Equal hashes mean the same nodes were expanded and cut in the same order
/// (the prune counters split by cause) and the same node budget was hit.
class TreeHash {
 public:
  void add(const exact::BnbResult& r) {
    mix(static_cast<std::uint64_t>(r.makespan));
    mix(r.proven_optimal ? 1 : 0);
    mix(r.nodes_explored);
    mix(r.stats.prune_incumbent);
    mix(r.stats.prune_bound);
    mix(r.stats.prune_energy);
    mix(r.stats.budget_polls);
    truncated_ += r.proven_optimal ? 0 : 1;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] int truncated() const { return truncated_; }

 private:
  void mix(std::uint64_t x) { h_ = (h_ ^ x) * 1099511628211ULL; }
  std::uint64_t h_ = 1469598103934665603ULL;
  int truncated_ = 0;
};

/// A node budget small enough that the hardest instances below stop on it
/// (pinning the truncation point too) and the test stays fast.
exact::BnbConfig tree_hash_config() {
  exact::BnbConfig config;
  config.max_nodes = 20'000;
  config.time_limit_sec = 300.0;
  return config;
}

TEST(BnbGoldenTest, SearchTreeHashOnGoldenBatches) {
  TreeHash hash;
  for (const auto& c : goldens::golden_bnb_cases()) {
    for (const graph::Dag& dag : goldens::golden_bnb_batch(c)) {
      hash.add(exact::min_makespan(dag, c.m, tree_hash_config()));
    }
  }
  EXPECT_GT(hash.truncated(), 0) << "the budget no longer truncates a solve";
  EXPECT_EQ(hash.value(), 4495479167754030745ULL)
      << "the B&B explores a different tree; if intended, regenerate this "
         "value and give the reason in CHANGES.md";
}

TEST(BnbGoldenTest, SearchTreeHashOnMultiWordDags) {
  // 70-130 nodes: the ready sets span two or three 64-bit words.  One
  // batch has a lone offload node (the dominance rule), one has three
  // offload nodes sharing the accelerator (the accelerator branches).
  TreeHash hash;
  for (const int offloads : {0, 3}) {
    exp::BatchConfig config;
    config.params = gen::HierarchicalParams::large_tasks();
    config.params.min_nodes = 70;
    config.params.max_nodes = 130;
    if (offloads > 0) {
      config.params.num_devices = 1;
      config.params.offloads_per_device = offloads;
    }
    config.coff_ratio = 0.1;
    config.count = 8;
    config.seed = 0xB0B0070ULL + static_cast<std::uint64_t>(offloads);
    for (const graph::Dag& dag : exp::generate_batch(config)) {
      ASSERT_GT(dag.num_nodes(), 64u);
      for (const int m : {4, 8}) {
        hash.add(exact::min_makespan(dag, m, tree_hash_config()));
      }
    }
  }
  EXPECT_GT(hash.truncated(), 0) << "the budget no longer truncates a solve";
  EXPECT_EQ(hash.value(), 13537203579788363837ULL)
      << "the B&B explores a different tree; if intended, regenerate this "
         "value and give the reason in CHANGES.md";
}

TEST(BnbGoldenTest, MatchesBruteForceOnRandomSmallInstances) {
  // Randomized (but seeded) equivalence sweep: generated single-offload
  // DAGs small enough for the exhaustive reference.
  exp::BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 4;
  config.params.max_nodes = 9;
  config.coff_ratio = 0.35;
  config.count = 40;
  config.seed = 0x5EED5EEDULL;
  const auto batch = exp::generate_batch(config);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const int m : {1, 2, 3}) {
      const auto result = exact::min_makespan(batch[i], m);
      const auto reference = exact::brute_force_min_makespan(batch[i], m);
      EXPECT_TRUE(result.proven_optimal) << "instance " << i << " m=" << m;
      EXPECT_EQ(result.makespan, reference) << "instance " << i << " m=" << m;
      EXPECT_GE(result.makespan, result.root_lower_bound);
      EXPECT_LE(result.makespan, result.heuristic_upper_bound);
    }
  }
}

}  // namespace
}  // namespace hedra
