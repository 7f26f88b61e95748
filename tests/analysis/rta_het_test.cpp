#include "analysis/rta_heterogeneous.h"

#include <gtest/gtest.h>

#include "analysis/naive.h"
#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::analysis {
namespace {

TEST(RtaHetTest, PaperExampleScenario1) {
  const auto ex = testing::paper_example();
  const HetAnalysis analysis = analyze_heterogeneous(ex.dag, 2);
  // In G' the critical path runs v1-v4-vsync-v3-v5 (len 10); the v_off path
  // is only 8, so Scenario 1 applies.
  EXPECT_EQ(analysis.scenario, Scenario::kS1);
  EXPECT_FALSE(analysis.voff_on_critical_path);
  EXPECT_EQ(analysis.len_original, 8);
  EXPECT_EQ(analysis.len_transformed, 10);
  EXPECT_EQ(analysis.volume, 18);
  EXPECT_EQ(analysis.c_off, 4);
  EXPECT_EQ(analysis.len_gpar, 6);
  EXPECT_EQ(analysis.vol_gpar, 10);
  // Eq. 2: 10 + (18 - 10 - 4)/2 = 12.
  EXPECT_EQ(analysis.r_het, Frac(12));
  // Baseline Eq. 1 on τ: 13.
  EXPECT_EQ(analysis.r_hom, Frac(13));
}

TEST(RtaHetTest, PaperExampleHetBeatsHom) {
  const auto ex = testing::paper_example();
  const HetAnalysis analysis = analyze_heterogeneous(ex.dag, 2);
  EXPECT_LT(analysis.r_het, analysis.r_hom);
  EXPECT_EQ(best_bound(ex.dag, 2), Frac(12));
}

TEST(RtaHetTest, Scenario21Chain) {
  // s21_example: v1(1) -> vOff(10) -> v3(1), parallel p(1).
  // G': len = 12 via v_off; R_hom(G_par) = 1 <= C_off -> S2.1.
  const graph::Dag dag = testing::s21_example(10);
  const HetAnalysis analysis = analyze_heterogeneous(dag, 2);
  EXPECT_EQ(analysis.scenario, Scenario::kS21);
  EXPECT_TRUE(analysis.voff_on_critical_path);
  EXPECT_EQ(analysis.len_transformed, 12);
  EXPECT_EQ(analysis.r_hom_gpar, Frac(1));
  // Eq. 3: 12 + (13 - 12 - 1)/2 = 12.
  EXPECT_EQ(analysis.r_het, Frac(12));
  // Baseline: len(G) = 12, vol = 13 -> 12 + 1/2.
  EXPECT_EQ(analysis.r_hom, Frac(12) + Frac(1, 2));
}

TEST(RtaHetTest, Scenario22WideGPar) {
  // wide_gpar_example(4): G_par = 4 parallel nodes of 2; m=2:
  // R_hom(G_par) = 2 + 6/2 = 5 > C_off = 4 >= len(G_par) = 2 -> S2.2.
  const graph::Dag dag = testing::wide_gpar_example(4);
  const HetAnalysis analysis = analyze_heterogeneous(dag, 2);
  EXPECT_EQ(analysis.scenario, Scenario::kS22);
  EXPECT_TRUE(analysis.voff_on_critical_path);
  EXPECT_EQ(analysis.len_transformed, 6);  // v1 + v_off + v6 = 1+4+1
  EXPECT_EQ(analysis.r_hom_gpar, Frac(5));
  // Eq. 4: 6 - 4 + 2 + (14 - 6 - 2)/2 = 7.
  EXPECT_EQ(analysis.r_het, Frac(7));
}

TEST(RtaHetTest, Scenario21WhenCoffLarge) {
  // Same structure, C_off = 9 > R_hom(G_par) = 5 -> S2.1.
  const graph::Dag dag = testing::wide_gpar_example(9);
  const HetAnalysis analysis = analyze_heterogeneous(dag, 2);
  EXPECT_EQ(analysis.scenario, Scenario::kS21);
  // Eq. 3: len(G')=11, vol=19, vol(G_par)=8: 11 + 0/2 = 11.
  EXPECT_EQ(analysis.r_het, Frac(11));
}

TEST(RtaHetTest, Equations3And4AgreeAtTheBoundary) {
  // §4: "scenarios 2.1 and 2.2 are equivalent when C_off = R_hom(G_par)".
  // wide_gpar_example(5) with m=2 hits C_off == R_hom(G_par) == 5 exactly.
  const graph::Dag dag = testing::wide_gpar_example(5);
  const HetAnalysis analysis = analyze_heterogeneous(dag, 2);
  EXPECT_EQ(Frac(analysis.c_off), analysis.r_hom_gpar);
  EXPECT_EQ(analysis.scenario, Scenario::kS21);  // tie classified as S2.1
  // Evaluate both closed forms by hand: len(G')=7, vol=15, vol_par=8,
  // len_par=2.
  const Frac eq3 = Frac(7) + Frac(15 - 7 - 8, 2);
  const Frac eq4 = Frac(7) - Frac(5) + Frac(2) + Frac(15 - 7 - 2, 2);
  EXPECT_EQ(eq3, eq4);
  EXPECT_EQ(analysis.r_het, eq3);
}

TEST(RtaHetTest, EmptyGParFallsIntoS21) {
  // Chain v1 -> vOff -> v3: R_hom(G_par) = 0 <= C_off, v_off critical.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto voff = dag.add_node(5, graph::NodeKind::kOffload);
  const auto v3 = dag.add_node(1);
  dag.add_edge(v1, voff);
  dag.add_edge(voff, v3);
  const HetAnalysis analysis = analyze_heterogeneous(dag, 2);
  EXPECT_EQ(analysis.scenario, Scenario::kS21);
  // Eq. 3: len(G') = 7, vol = 7, vol_par = 0 -> 7 + 0 = 7.
  EXPECT_EQ(analysis.r_het, Frac(7));
}

TEST(RtaHetTest, S1ImpliesGParOutlastsCoff) {
  // Theorem 1's proof hinges on len(G_par) > C_off in Scenario 1.
  const auto ex = testing::paper_example();
  const HetAnalysis analysis = analyze_heterogeneous(ex.dag, 2);
  ASSERT_EQ(analysis.scenario, Scenario::kS1);
  EXPECT_GT(analysis.len_gpar, analysis.c_off);
}

TEST(RtaHetTest, ScenarioNamesRender) {
  EXPECT_STREQ(to_string(Scenario::kS1), "S1");
  EXPECT_STREQ(to_string(Scenario::kS21), "S2.1");
  EXPECT_STREQ(to_string(Scenario::kS22), "S2.2");
}

TEST(RtaHetTest, ScenarioDependsOnM) {
  // wide_gpar_example(4): m=2 gives R_hom(G_par)=5 > 4 -> S2.2; with m=4,
  // R_hom(G_par) = 2 + 6/4 = 3.5 < 4 -> S2.1.
  const graph::Dag dag = testing::wide_gpar_example(4);
  EXPECT_EQ(analyze_heterogeneous(dag, 2).scenario, Scenario::kS22);
  EXPECT_EQ(analyze_heterogeneous(dag, 4).scenario, Scenario::kS21);
}

TEST(RtaHetTest, RhetReducesInterferenceVersusEq1OnTransformedGraph) {
  // On the transformed DAG, R_het is never worse than applying plain Eq. 1
  // to G' (the subtraction terms are non-negative).
  for (const auto& dag :
       {testing::paper_example().dag, testing::s21_example(),
        testing::wide_gpar_example(3), testing::wide_gpar_example(7)}) {
    for (const int m : {2, 4, 8}) {
      const auto analysis = analyze_heterogeneous(dag, m);
      const Frac eq1_on_gprime =
          rta_homogeneous(analysis.transformed, m);
      EXPECT_LE(analysis.r_het, eq1_on_gprime);
    }
  }
}

TEST(RtaHetTest, InvalidInputsThrow) {
  const auto ex = testing::paper_example();
  EXPECT_THROW(analyze_heterogeneous(ex.dag, 0), Error);
  EXPECT_THROW(analyze_heterogeneous(testing::chain(3, 1), 2), Error);
}

}  // namespace
}  // namespace hedra::analysis
