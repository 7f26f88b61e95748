#include "analysis/schedulability.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "common/multi_offload.h"

namespace hedra::analysis {
namespace {

model::DagTask paper_task(graph::Time deadline) {
  const auto ex = testing::paper_example();
  return model::DagTask(ex.dag, /*period=*/deadline, deadline);
}

TEST(SchedulabilityTest, HomogeneousUsesEq1) {
  const auto report =
      check_schedulability(paper_task(13), 2, AnalysisKind::kHomogeneous);
  EXPECT_EQ(report.bound, Frac(13));
  EXPECT_TRUE(report.schedulable);
}

TEST(SchedulabilityTest, HomogeneousMissesTighterDeadline) {
  const auto report =
      check_schedulability(paper_task(12), 2, AnalysisKind::kHomogeneous);
  EXPECT_FALSE(report.schedulable);
}

TEST(SchedulabilityTest, HeterogeneousAcceptsWhatHomogeneousCannot) {
  // The paper's headline: R_het = 12 < R_hom = 13, so a deadline of 12 is
  // only provably met with the heterogeneous analysis.
  const auto hom =
      check_schedulability(paper_task(12), 2, AnalysisKind::kHomogeneous);
  const auto het =
      check_schedulability(paper_task(12), 2, AnalysisKind::kHeterogeneous);
  EXPECT_FALSE(hom.schedulable);
  EXPECT_TRUE(het.schedulable);
  EXPECT_EQ(het.bound, Frac(12));
  EXPECT_EQ(het.scenario, Scenario::kS1);
}

TEST(SchedulabilityTest, BestTakesTheMinimum) {
  const auto report =
      check_schedulability(paper_task(12), 2, AnalysisKind::kBest);
  EXPECT_EQ(report.bound, Frac(12));
  EXPECT_TRUE(report.schedulable);
}

TEST(SchedulabilityTest, BestIsNeverWorseThanEither) {
  // s21_example: R_hom = 12.5, R_het = 12.
  const model::DagTask task(testing::s21_example(), 50, 50);
  const auto best = check_schedulability(task, 2, AnalysisKind::kBest);
  const auto hom = check_schedulability(task, 2, AnalysisKind::kHomogeneous);
  const auto het = check_schedulability(task, 2, AnalysisKind::kHeterogeneous);
  EXPECT_LE(best.bound, hom.bound);
  EXPECT_LE(best.bound, het.bound);
}

TEST(SchedulabilityTest, ExactDeadlineBoundaryIsSchedulable) {
  const auto report =
      check_schedulability(paper_task(12), 2, AnalysisKind::kHeterogeneous);
  EXPECT_TRUE(report.schedulable);  // R <= D, not R < D
  EXPECT_EQ(report.deadline, 12);
}

TEST(SchedulabilityTest, KindNamesRender) {
  EXPECT_STREQ(to_string(AnalysisKind::kHomogeneous), "homogeneous");
  EXPECT_STREQ(to_string(AnalysisKind::kHeterogeneous), "heterogeneous");
  EXPECT_STREQ(to_string(AnalysisKind::kBest), "best");
  EXPECT_STREQ(to_string(AnalysisKind::kPlatform), "platform");
}

TEST(SchedulabilityTest, PlatformKindUsesTheChainBound) {
  // multi_device_example: R_plat = 28 for every m (host chain dominates).
  const auto ex = testing::multi_device_example();
  const model::DagTask task(ex.dag, 30, 28);
  const auto report = check_schedulability(task, 4, AnalysisKind::kPlatform);
  EXPECT_EQ(report.kind, AnalysisKind::kPlatform);
  EXPECT_EQ(report.bound, Frac(28));
  EXPECT_TRUE(report.schedulable);
  // The gpu class (vol 6) outweighs the dsp class (vol 5).
  EXPECT_EQ(report.dominating_device, 1);
  EXPECT_EQ(report.dominating_device_term, Frac(6));

  const model::DagTask tight(ex.dag, 30, 27);
  EXPECT_FALSE(
      check_schedulability(tight, 4, AnalysisKind::kPlatform).schedulable);
}

/// SATELLITE REGRESSION: on a single-accelerator task the kPlatform test is
/// exactly the heterogeneous two-resource path — the K = 1 chain bound
/// equals rta_multi_offload across the paper's whole m grid.
TEST(SchedulabilityTest, PlatformKindAtKOneEqualsTheHeterogeneousPathBound) {
  const auto ex = testing::paper_example();
  for (const int m : {1, 2, 4, 8, 16}) {
    const model::DagTask task(ex.dag, 100, 100);
    const auto report = check_schedulability(task, m, AnalysisKind::kPlatform);
    EXPECT_EQ(report.bound, testing::rta_multi_offload(ex.dag, m)) << "m=" << m;
    EXPECT_EQ(report.dominating_device, 1);
    EXPECT_EQ(report.dominating_device_term, Frac(4));  // C_off = 4
  }
}

TEST(SchedulabilityTest, PlatformOverloadReportsMultiUnitBounds) {
  // With two gpu units the example's bound drops from 28 to 25 (m >= 2):
  // 17/m + (6/2 + 5) + max(17, 9 + 3·m/(m−1))·(m−1)/m.
  const auto ex = testing::multi_device_example();
  const model::DagTask task(ex.dag, 30, 25);
  const auto platform = model::Platform::parse("4:gpu*2,dsp");
  const auto report = check_schedulability(task, platform);
  EXPECT_EQ(report.kind, AnalysisKind::kPlatform);
  EXPECT_EQ(report.bound, Frac(25));
  EXPECT_TRUE(report.schedulable);
  // Splitting the gpu over two units hands dominance to the dsp class.
  EXPECT_EQ(report.dominating_device, 2);
  EXPECT_EQ(report.dominating_device_term, Frac(5));

  EXPECT_FALSE(check_schedulability(task, model::Platform::parse("4:gpu,dsp"))
                   .schedulable)
      << "single-unit bound is 28 > 25";
}

TEST(SchedulabilityTest, PlatformOverloadRejectsUnsupportedPlacements) {
  const auto ex = testing::multi_device_example();
  const model::DagTask task(ex.dag, 30, 30);
  EXPECT_THROW(
      (void)check_schedulability(task, model::Platform::parse("4:gpu")),
      Error);
}

TEST(SchedulabilityTest, HomogeneousTaskHasNoDominatingDevice) {
  const model::DagTask task(testing::chain(3, 5), 40, 40);
  const auto report = check_schedulability(task, 2, AnalysisKind::kPlatform);
  EXPECT_EQ(report.dominating_device, 0);
  EXPECT_EQ(report.dominating_device_term, Frac(0));
}

TEST(SchedulabilityTest, MoreCoresNeverHurtSchedulability) {
  const model::DagTask task(testing::wide_gpar_example(4), 14, 14);
  bool was_schedulable = false;
  for (const int m : {1, 2, 4, 8, 16}) {
    const auto report = check_schedulability(task, m, AnalysisKind::kBest);
    if (was_schedulable) {
      EXPECT_TRUE(report.schedulable) << "m=" << m;
    }
    was_schedulable = report.schedulable;
  }
}

}  // namespace
}  // namespace hedra::analysis
