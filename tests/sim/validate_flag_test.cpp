/// SimConfig::validate gates the per-run trace re-validation: on by default
/// (any violation is a hedra bug and must throw), off in the Monte-Carlo
/// sweep call sites.  The sim::validation_runs() counter makes the gating
/// observable, and the flag must never change the produced schedule.

#include <gtest/gtest.h>

#include "common/golden_batch.h"
#include "graph/flat_dag.h"
#include "sim/scheduler.h"

namespace hedra::sim {
namespace {

TEST(ValidateFlagTest, DefaultOnRunsValidationAndOffSkipsIt) {
  const auto batch = goldens::golden_sim_batch(2);
  SimConfig config;
  config.cores = 4;

  const std::uint64_t before_on = validation_runs();
  (void)simulate(batch[0], config);  // default: validate = true
  EXPECT_EQ(validation_runs(), before_on + 1);

  config.validate = false;
  const std::uint64_t before_off = validation_runs();
  (void)simulate(batch[0], config);
  EXPECT_EQ(validation_runs(), before_off);
}

TEST(ValidateFlagTest, FlagDoesNotChangeTheSchedule) {
  const auto batch = goldens::golden_sim_batch(3);
  for (const auto policy : all_policies()) {
    SimConfig config;
    config.cores = 4;
    config.policy = policy;
    const auto validated = simulate(batch[1], config);
    config.validate = false;
    const auto unvalidated = simulate(batch[1], config);
    EXPECT_EQ(validated.to_text(), unvalidated.to_text())
        << to_string(policy);
    // The unvalidated trace is still a valid schedule, of course.
    EXPECT_TRUE(unvalidated.validate().empty()) << to_string(policy);
  }
}

TEST(ValidateFlagTest, FlatDagEntryPointsHonourTheFlag) {
  const auto batch = goldens::golden_sim_batch(1);
  const graph::FlatDag flat(batch[2]);
  SimConfig config;
  config.cores = 2;
  const std::uint64_t before = validation_runs();
  config.validate = false;
  const auto fast = simulate(flat.view(), config);
  EXPECT_EQ(validation_runs(), before);
  config.validate = true;
  const auto checked = simulate(flat.view(), config);
  EXPECT_EQ(validation_runs(), before + 1);
  EXPECT_EQ(fast.to_text(), checked.to_text());
}

}  // namespace
}  // namespace hedra::sim
