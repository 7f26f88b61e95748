// Differential referee for incremental admission: seeded random ADMIT/LEAVE
// sequences against an AdmissionService, with every published snapshot,
// every reply line and every journal replay checked against the
// from-scratch taskset::contention_rta.  Also the concurrency and
// copy-on-write contracts of snapshots that share task records.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/contention_equal.h"
#include "graph/dag_io.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "util/rng.h"

namespace hedra::serve {
namespace {

using taskset::ContentionAnalysis;
using taskset::TaskSet;
using taskset::TaskSetGenConfig;

TaskSetGenConfig pool_config(int num_tasks, int devices, int cores,
                             double utilization) {
  TaskSetGenConfig config;
  config.num_tasks = num_tasks;
  config.total_utilization = utilization;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 6;
  config.dag_params.max_nodes = 24;
  config.dag_params.wcet_max = 50;
  config.dag_params.num_devices = devices;
  config.coff_ratio = 0.3;
  config.cores = cores;
  if (devices > 0) config.device_units.assign(devices, 4);
  return config;
}

struct Mix {
  std::string name;
  model::Platform platform;
  std::vector<model::DagTask> pool;  ///< candidates, renamed per request
};

/// Candidates are generated at a utilisation where the platform holds a
/// handful of them at once, so that some admissions are REJECTED — by
/// running out of host cores, or by the carry-in fixpoint on the classes.
Mix make_mix(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  const TaskSetGenConfig host = pool_config(16, 0, 10, 10.0);
  const TaskSetGenConfig shared = pool_config(16, 2, 12, 10.0);
  Mix mix;
  mix.name = name;
  if (name == "host-only") {
    mix.platform = host.platform();
    const TaskSet set = taskset::generate_task_set(host, rng);
    mix.pool.assign(set.begin(), set.end());
    return mix;
  }
  mix.platform = shared.platform();
  const TaskSet set = taskset::generate_task_set(shared, rng);
  mix.pool.assign(set.begin(), set.end());
  if (name == "mixed") {
    const TaskSet host_set = taskset::generate_task_set(host, rng);
    mix.pool.insert(mix.pool.end(), host_set.begin(), host_set.end());
  }
  return mix;
}

model::DagTask renamed(const model::DagTask& task, const std::string& name) {
  return model::DagTask(task.dag(), task.period(), task.deadline(), name);
}

/// The reply admit() must give for `candidate` joining `set`, derived from
/// the from-scratch analysis (an unlimited budget, so the ladder's
/// budget-cut rungs do not apply).
AdmissionReply reference_reply(const TaskSet& set,
                               const model::DagTask& candidate) {
  const ContentionAnalysis analysis =
      taskset::contention_rta(set.with_appended(candidate));
  EXPECT_EQ(analysis.outcome, util::Outcome::kComplete);
  AdmissionReply reply;
  reply.task = candidate.name();
  if (analysis.schedulable) {
    reply.decision = Decision::kAdmitted;
    reply.cores = analysis.tasks.back().cores;
    reply.response = analysis.tasks.back().response;
    reply.detail = "proven by exact fixpoint";
    return reply;
  }
  reply.decision = Decision::kRejected;
  for (const taskset::TaskAdmission& t : analysis.tasks) {
    if (!t.schedulable) {
      reply.detail = "task '" + t.name + "' misses its deadline (R = " +
                     t.response.to_string() + ")";
      break;
    }
  }
  return reply;
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Restarts from a copy of the journal: the recovered state must be the
/// published one, and its (from-scratch) analysis the published analysis.
void expect_journal_replays(const std::string& journal,
                            const model::Platform& platform,
                            const Snapshot& published) {
  const std::string copy = journal + ".replay";
  std::filesystem::copy_file(journal, copy,
                             std::filesystem::copy_options::overwrite_existing);
  AdmissionConfig config;
  config.platform = platform;
  config.journal_path = copy;
  const AdmissionService recovered(config);
  const auto state = recovered.snapshot();
  EXPECT_EQ(state->set.to_text(), published.set.to_text());
  if (!published.set.empty()) {
    testing::expect_same_analysis(state->analysis, published.analysis);
  }
}

struct Tally {
  int admitted = 0;
  int rejected = 0;
  int left_front = 0;
  int left_middle = 0;
  int left_end = 0;
};

Tally run_sequence(const Mix& mix, std::uint64_t seed, int steps) {
  AdmissionConfig config;
  config.platform = mix.platform;
  config.journal_path =
      fresh_path("referee_" + mix.name + std::to_string(seed) + ".journal");
  AdmissionService service(config);
  Rng rng(seed);
  Tally tally;
  int next_name = 0;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(mix.name + " seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const auto before = service.snapshot();
    const std::size_t size = before->set.size();
    if (size == 0 || rng.uniform_int(0, 9) < 6) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mix.pool.size()) - 1));
      const model::DagTask candidate =
          renamed(mix.pool[pick], "c" + std::to_string(next_name++));
      const AdmissionReply expected = reference_reply(before->set, candidate);
      const AdmissionReply actual = service.admit(candidate);
      EXPECT_EQ(format_reply(actual), format_reply(expected));
      if (actual.decision == Decision::kAdmitted) {
        ++tally.admitted;
      } else {
        ++tally.rejected;
      }
    } else {
      // Leave from the front, the middle or the end of the priority order.
      const std::int64_t where = rng.uniform_int(0, 2);
      const std::size_t index = where == 0 ? 0 : where == 1 ? size / 2 : size - 1;
      const AdmissionReply reply = service.leave(before->set[index].name());
      EXPECT_EQ(reply.decision, Decision::kOk);
      if (index == 0) {
        ++tally.left_front;
      } else if (index == size - 1) {
        ++tally.left_end;
      } else {
        ++tally.left_middle;
      }
    }
    const auto after = service.snapshot();
    if (!after->set.empty()) {
      testing::expect_same_analysis(after->analysis,
                                    taskset::contention_rta(after->set));
    }
    expect_journal_replays(config.journal_path, mix.platform, *after);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return tally;
}

TEST(IncrementalRefereeTest, RandomSequencesMatchTheFromScratchAnalysis) {
  for (const char* name : {"host-only", "shared-4x4", "mixed"}) {
    const Mix mix = make_mix(name, 17);
    Tally total;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Tally t = run_sequence(mix, seed, 50);
      total.admitted += t.admitted;
      total.rejected += t.rejected;
      total.left_front += t.left_front;
      total.left_middle += t.left_middle;
      total.left_end += t.left_end;
    }
    SCOPED_TRACE(name);
    // The sequences reached the cases they exist for.
    EXPECT_GT(total.admitted, 10);
    EXPECT_GT(total.rejected, 3);
    EXPECT_GT(total.left_front, 2);
    EXPECT_GT(total.left_middle, 2);
    EXPECT_GT(total.left_end, 2);
  }
}

TEST(IncrementalRefereeTest, HostOnlyMutationsSolveOnlyTheNewcomer) {
  const Mix mix = make_mix("host-only", 17);
  AdmissionConfig config;
  config.platform = model::Platform::parse("64");
  AdmissionService service(config);
  int admitted = 0;
  for (std::size_t i = 0; i < mix.pool.size(); ++i) {
    const AdmissionReply reply =
        service.admit(renamed(mix.pool[i], "h" + std::to_string(i)));
    if (reply.decision != Decision::kAdmitted) continue;
    ++admitted;
    // The newcomer's scan from one core up to its allocation, nothing else.
    EXPECT_EQ(service.snapshot()->analysis.telemetry.fixpoint_solves,
              static_cast<std::uint64_t>(reply.cores));
  }
  EXPECT_GT(admitted, 10);
  ASSERT_EQ(service.leave(service.snapshot()->set[1].name()).decision,
            Decision::kOk);
  EXPECT_EQ(service.snapshot()->analysis.telemetry.fixpoint_solves, 0u);
}

TEST(IncrementalRefereeTest, MutatingACopiedTaskLeavesSnapshotsUnchanged) {
  const Mix mix = make_mix("shared-4x4", 17);
  AdmissionConfig config;
  config.platform = mix.platform;
  AdmissionService service(config);
  const model::DagTask original = renamed(mix.pool[0], "t0");
  const std::string original_text = graph::write_dag_text(original.dag());
  ASSERT_EQ(service.admit(original).decision, Decision::kAdmitted);
  const auto published = service.snapshot();
  ASSERT_EQ(service.admit(renamed(mix.pool[1], "t1")).decision,
            Decision::kAdmitted);
  const auto successor = service.snapshot();
  // Successive snapshots share the task's graph.
  EXPECT_EQ(&successor->set[0].dag(), &published->set[0].dag());

  model::DagTask copy = successor->set[0];
  copy.mutable_dag().set_wcet(0, copy.dag().wcet(0) + 1000);
  EXPECT_NE(graph::write_dag_text(copy.dag()), original_text);
  EXPECT_EQ(graph::write_dag_text(original.dag()), original_text);
  EXPECT_EQ(graph::write_dag_text(published->set[0].dag()), original_text);
  EXPECT_EQ(graph::write_dag_text(successor->set[0].dag()), original_text);
  EXPECT_EQ(service.snapshot()->set.to_text(), successor->set.to_text());
}

TEST(SnapshotReadersTest, WalkSharedSnapshotsWhileTheWriterMutates) {
  // Readers walk the published set (graphs shared across versions) and its
  // analysis while the writer admits and leaves; arena-backed candidates
  // make admit() materialise graphs as it goes.
  const Mix mix = make_mix("shared-4x4", 23);
  AdmissionConfig config;
  config.platform = mix.platform;
  AdmissionService service(config);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> walks{0};
  std::atomic<int> inconsistent{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = service.snapshot();
        const TaskSet& set = snapshot->set;
        if (!set.empty() && snapshot->analysis.tasks.size() != set.size()) {
          inconsistent.fetch_add(1);
        }
        std::size_t nodes = 0;
        for (std::size_t i = 0; i < set.size(); ++i) {
          nodes += set[i].dag().num_nodes();
          if (i < snapshot->analysis.tasks.size() &&
              snapshot->analysis.tasks[i].name != set[i].name()) {
            inconsistent.fetch_add(1);
          }
        }
        if (!set.empty() && nodes == 0) inconsistent.fetch_add(1);
        walks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(29);
  for (int step = 0; step < 120; ++step) {
    const auto current = service.snapshot();
    if (current->set.empty() || rng.uniform_int(0, 2) > 0) {
      // Arena-backed pool tasks keep their generated names; skip the ones
      // already admitted.
      const model::DagTask& task =
          mix.pool[static_cast<std::size_t>(step) % mix.pool.size()];
      (void)service.admit(task);
    } else {
      const auto index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(current->set.size()) - 1));
      EXPECT_EQ(service.leave(current->set[index].name()).decision,
                Decision::kOk);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_GT(walks.load(), 0u);
}

}  // namespace
}  // namespace hedra::serve
