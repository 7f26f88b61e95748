// The contention fixpoint against an independent Frac oracle
// (tests/common/fixpoint_oracle.h): both arithmetic engines, every
// reported field, and every truncation point of a work budget.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/fixpoint_oracle.h"
#include "common/platform_oracle.h"
#include "taskset/contention_rta.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::taskset {
namespace {

/// A speedup whose numerator is a prime above 2^20: every unit volume on
/// its class gets a denominator past the integer path's scale cap, so the
/// whole set runs on the Frac path.
Frac frac_path_speedup() { return Frac(1048583, 1000000); }

void expect_matches(const ContentionAnalysis& got,
                    const testing::OracleAdmission& want) {
  EXPECT_EQ(got.schedulable, want.schedulable);
  EXPECT_EQ(got.cores_used, want.cores_used);
  EXPECT_EQ(got.outcome == util::Outcome::kBudgetExhausted, want.truncated);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t i = 0; i < got.tasks.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const TaskAdmission& g = got.tasks[i];
    const testing::OracleTask& w = want.tasks[i];
    EXPECT_EQ(g.cores, w.cores);
    EXPECT_EQ(g.schedulable, w.schedulable);
    EXPECT_EQ(g.outcome == util::Outcome::kBudgetExhausted, w.truncated);
    EXPECT_EQ(g.seed, w.fixpoint.seed);
    EXPECT_EQ(g.response, w.fixpoint.response);
    EXPECT_EQ(g.iterations, w.fixpoint.iterations);
    ASSERT_EQ(g.devices.size(), w.fixpoint.devices.size());
    for (std::size_t d = 0; d < g.devices.size(); ++d) {
      const testing::OracleDevice& wd = w.fixpoint.devices[d];
      EXPECT_EQ(g.devices[d].device, wd.device);
      EXPECT_EQ(g.devices[d].own_volume, wd.own_volume);
      EXPECT_EQ(g.devices[d].interference, wd.interference)
          << "device " << wd.device;
      EXPECT_EQ(g.devices[d].dominant_competitor, wd.dominant_competitor)
          << "device " << wd.device;
    }
  }
}

/// `prefix` followed by `i` (appended, not `"literal" + std::string`, which
/// GCC 12 misreports under -Wrestrict).
std::string numbered(const char* prefix, std::size_t i) {
  return std::string(prefix).append(std::to_string(i));
}

/// A one-node task on `device` with WCET `wcet`.
graph::Dag single_node(graph::Time wcet, graph::DeviceId device) {
  graph::Dag dag;
  (void)dag.add_node_on(wcet, device);
  return dag;
}

/// Up to 8 random oracle-sized tasks on `k` classes of `units` units each,
/// constrained deadlines D in [T/2, T], arena-backed and Dag-backed tasks
/// mixed; with `unit_period` one extra task has T = D = 1 and one WCET
/// tick on class 1.
TaskSet random_set(std::uint64_t seed, int k, int units, bool frac_speedup,
                   bool unit_period) {
  Rng rng(seed);
  model::Platform platform = model::Platform::symmetric(
      static_cast<int>(rng.uniform_int(2, 8)), k, units);
  if (frac_speedup) {
    platform.device_speedup.assign(static_cast<std::size_t>(k), Frac(1));
    platform.device_speedup[0] = frac_path_speedup();
  }
  TaskSet set(platform);
  const auto count = static_cast<std::size_t>(rng.uniform_int(2, 7));
  const auto batch = std::make_shared<const graph::FlatDagBatch>(
      testing::random_oracle_batch(rng, count,
                                   static_cast<graph::DeviceId>(k)));
  const std::size_t unit_at =
      unit_period ? static_cast<std::size_t>(rng.uniform_int(0, count))
                  : count + 1;
  for (std::size_t i = 0; i <= count; ++i) {
    if (i == unit_at) {
      set.add(DagTask(single_node(1, 1), 1, 1, "unit"));
    }
    if (i == count) break;
    const graph::Time period = rng.uniform_int(30, 300);
    const graph::Time deadline = rng.uniform_int((period + 1) / 2, period);
    const std::string name = numbered("t", i);
    if (i % 2 == 0) {
      set.add(DagTask(batch, i, period, deadline, name));
    } else {
      set.add(DagTask(batch->materialize(i), period, deadline, name));
    }
  }
  return set;
}

TEST(FixpointOracleTest, RandomSetsMatchTheOracle) {
  FixpointTelemetry seen;
  int multi_iteration = 0;
  int crossed = 0;
  std::uint64_t seed = 4100;
  for (const int k : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      for (const bool frac_speedup : {false, true}) {
        for (int rep = 0; rep < 12; ++rep) {
          const TaskSet set =
              random_set(++seed, k, units, frac_speedup, rep % 3 == 0);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " K=" << k << " n_d=" << units
                       << (frac_speedup ? " frac" : " int"));
          const ContentionAnalysis analysis = contention_rta(set);
          expect_matches(analysis, testing::oracle_admission(set));
          seen.int_path += analysis.telemetry.int_path;
          seen.frac_path += analysis.telemetry.frac_path;

          for (std::size_t i = 0; i < set.size(); ++i) {
            for (const int m : {1, set.platform().cores}) {
              bool converged = false;
              const Frac response =
                  contention_response(set, i, m, &converged);
              testing::OracleWork work;
              const testing::OracleFixpoint want = testing::oracle_fixpoint(
                  set, i, testing::oracle_seed(set, i, m), work);
              EXPECT_EQ(response, want.response) << "task " << i << " m " << m;
              EXPECT_EQ(converged, want.converged)
                  << "task " << i << " m " << m;
              multi_iteration += want.iterations > 2 ? 1 : 0;
              crossed += want.converged ? 0 : 1;
            }
          }
        }
      }
    }
  }
  // The sweep exercised both engines, long iterations and crossings.
  EXPECT_GT(seen.int_path, 100u);
  EXPECT_GT(seen.frac_path, 100u);
  EXPECT_GT(multi_iteration, 20);
  EXPECT_GT(crossed, 20);
}

/// Three identical tasks on one class: every competitor contributes the
/// same, so the first one in index order dominates.
TaskSet tied_set(bool frac_speedup) {
  model::Platform platform = model::Platform::parse("8:acc*2");
  if (frac_speedup) platform.device_speedup = {frac_path_speedup()};
  TaskSet set(platform);
  for (std::size_t i = 0; i < 3; ++i) {
    graph::Dag dag;
    const auto a = dag.add_node(4);
    const auto b = dag.add_node_on(6, 1);
    dag.add_edge(a, b);
    set.add(DagTask(std::move(dag), 50, 40, numbered("t", i)));
  }
  return set;
}

TEST(FixpointOracleTest, EqualContributionsPickTheFirstCompetitor) {
  for (const bool frac_speedup : {false, true}) {
    SCOPED_TRACE(frac_speedup ? "frac path" : "int path");
    const TaskSet set = tied_set(frac_speedup);
    const ContentionAnalysis analysis = contention_rta(set);
    expect_matches(analysis, testing::oracle_admission(set));
    ASSERT_EQ(analysis.tasks.size(), 3u);
    const std::size_t expected_dominant[] = {1, 0, 0};
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(analysis.tasks[i].devices.size(), 1u);
      EXPECT_NE(analysis.tasks[i].devices[0].interference, Frac());
      EXPECT_EQ(analysis.tasks[i].devices[0].dominant_competitor,
                expected_dominant[i]);
    }
  }
}

/// A set whose solves end every way: t0 converges after several
/// iterations against three short-period competitors on `acc`; those
/// cross their deadline at every core count; a `dsp` task shares the
/// second class with t0 and c3.
TaskSet budget_set(bool frac_speedup) {
  model::Platform platform = model::Platform::parse("4:acc*2,dsp");
  if (frac_speedup) platform.device_speedup = {frac_path_speedup(), Frac(1)};
  TaskSet set(platform);
  graph::Dag t0;
  const auto a = t0.add_node(20);
  const auto b = t0.add_node_on(10, 1);
  const auto c = t0.add_node_on(4, 2);
  const auto e = t0.add_node(10);
  t0.add_edge(a, b);
  t0.add_edge(a, c);
  t0.add_edge(b, e);
  t0.add_edge(c, e);
  set.add(DagTask(std::move(t0), 400, 400, "t0"));
  for (std::size_t i = 1; i <= 3; ++i) {
    graph::Dag competitor;
    const auto x = competitor.add_node_on(10, 1);
    if (i == 3) competitor.add_edge(x, competitor.add_node_on(1, 2));
    set.add(DagTask(std::move(competitor), 25, 25, numbered("c", i)));
  }
  graph::Dag dsp;
  dsp.add_edge(dsp.add_node(5), dsp.add_node_on(6, 2));
  set.add(DagTask(std::move(dsp), 100, 90, "d"));
  return set;
}

TEST(FixpointOracleTest, EveryWorkCapMatchesTheOracle) {
  for (const bool frac_speedup : {false, true}) {
    SCOPED_TRACE(frac_speedup ? "frac path" : "int path");
    const TaskSet set = budget_set(frac_speedup);
    util::Budget unlimited(util::Deadline::never());
    const ContentionAnalysis full = contention_rta(set, &unlimited);
    expect_matches(full, testing::oracle_admission(set));
    // The table cuts inside a long converging solve and inside scans that
    // cross the deadline at every core count.
    ASSERT_TRUE(full.tasks[0].schedulable);
    ASSERT_GE(full.tasks[0].iterations, 6);
    ASSERT_FALSE(full.tasks[1].schedulable);
    ASSERT_EQ(full.tasks[1].outcome, util::Outcome::kComplete);
    EXPECT_EQ(full.telemetry.frac_path > 0, frac_speedup);

    for (std::uint64_t cap = 0; cap <= unlimited.used(); ++cap) {
      SCOPED_TRACE("work cap " + std::to_string(cap));
      util::Budget budget(util::Deadline::never(), cap);
      const ContentionAnalysis cut = contention_rta(set, &budget);
      expect_matches(cut, testing::oracle_admission(set, {cap}));
      EXPECT_EQ(cut.outcome == util::Outcome::kBudgetExhausted,
                cap < unlimited.used());
    }
  }
}

TEST(FixpointOracleTest, DenseCarryInTakesTheFracPath) {
  // c's period is 2^40 times shorter than t1's deadline: t1's window holds
  // about 2^40 of c's jobs, one threshold step each on the integer path.
  // The set is solved in exact arithmetic instead, in a few iterations.
  TaskSet set(model::Platform::parse("1:acc"));
  set.add(DagTask(single_node(1, 1), 1, 1, "c"));
  graph::Dag dag;
  dag.add_edge(dag.add_node(graph::Time{1} << 38), dag.add_node_on(1, 1));
  const graph::Time window = graph::Time{1} << 40;
  set.add(DagTask(std::move(dag), window, window, "t1"));
  const ContentionAnalysis analysis = contention_rta(set);
  expect_matches(analysis, testing::oracle_admission(set));
  EXPECT_EQ(analysis.telemetry.int_path, 0u);
  EXPECT_FALSE(analysis.tasks[1].schedulable);
  EXPECT_EQ(analysis.tasks[1].outcome, util::Outcome::kComplete);
}

TEST(FixpointOracleTest, SeedWindowPastInt64ThrowsInsteadOfWrapping) {
  // t1's seed (2^40 ticks) is far past every deadline, where the integer
  // path's headroom guard does not reach: 2^40 jobs of c's 2^30 device
  // ticks overflow int64.  The integer path hands the solve to exact
  // arithmetic, which refuses the unrepresentable bound.
  TaskSet set(model::Platform::parse("1:acc"));
  set.add(DagTask(single_node(graph::Time{1} << 30, 1), 1, 1, "c"));
  graph::Dag dag;
  dag.add_edge(dag.add_node(graph::Time{1} << 40), dag.add_node_on(1, 1));
  set.add(DagTask(std::move(dag), 1, 1, "t1"));
  EXPECT_THROW((void)contention_response(set, 1, 1), Error);
  EXPECT_THROW((void)contention_rta(set), Error);
  // c's own solve fits: its carry-in is t1's single device tick per job.
  bool converged = true;
  const Frac response = contention_response(set, 0, 1, &converged);
  testing::OracleWork work;
  EXPECT_EQ(response, testing::oracle_fixpoint(
                          set, 0, testing::oracle_seed(set, 0, 1), work)
                          .response);
  EXPECT_FALSE(converged);
}

}  // namespace
}  // namespace hedra::taskset
