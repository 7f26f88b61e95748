#include "serve/admission.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hedra::serve {

namespace {

constexpr std::string_view kAdmitRecord = "admit\n";
constexpr std::string_view kLeavePrefix = "leave ";
constexpr std::string_view kPlatformPrefix = "platform ";

/// Parses one journalled task block by round-tripping it through the
/// hardened TaskSet parser (prepending the platform line), so journal
/// replay and network input share one validation path.
model::DagTask parse_task_block(const std::string& block,
                                const model::Platform& platform) {
  const taskset::TaskSet one =
      taskset::TaskSet::from_text("platform " + platform.spec() + "\n" + block);
  HEDRA_REQUIRE(one.size() == 1,
                "journal admit record holds " + std::to_string(one.size()) +
                    " tasks, expected exactly 1");
  return one[0];
}

}  // namespace

const char* to_string(Decision decision) noexcept {
  switch (decision) {
    case Decision::kAdmitted:
      return "ADMITTED";
    case Decision::kRejected:
      return "REJECTED";
    case Decision::kProvisional:
      return "PROVISIONAL";
    case Decision::kOk:
      return "OK";
    case Decision::kError:
      return "ERROR";
  }
  return "ERROR";
}

std::string task_to_text(const model::DagTask& task) {
  std::ostringstream os;
  os << "task " << task.name() << " period " << task.period() << " deadline "
     << task.deadline() << "\n"
     << graph::write_dag_text(task.dag()) << "endtask\n";
  return os.str();
}

AdmissionService::AdmissionService(AdmissionConfig config)
    : config_(std::move(config)) {
  config_.platform.validate();

  // hedra-lint: allow(fault-seam, startup path; no acknowledged state yet)
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->set = taskset::TaskSet(config_.platform);

  if (!config_.journal_path.empty()) {
    const JournalReplay replay = Journal::replay(config_.journal_path);
    journal_.emplace(config_.journal_path);

    std::vector<model::DagTask> tasks;
    bool have_platform = false;
    for (const std::string& record : replay.records) {
      if (starts_with(record, kPlatformPrefix)) {
        const std::string spec(trim(record.substr(kPlatformPrefix.size())));
        HEDRA_REQUIRE(
            spec == config_.platform.spec(),
            "journal platform '" + spec + "' does not match configured '" +
                config_.platform.spec() + "' — refusing to reinterpret "
                "admitted state on a different platform");
        have_platform = true;
      } else if (starts_with(record, kAdmitRecord)) {
        tasks.push_back(parse_task_block(record.substr(kAdmitRecord.size()),
                                         config_.platform));
      } else if (starts_with(record, kLeavePrefix)) {
        const std::string name(trim(record.substr(kLeavePrefix.size())));
        const auto it =
            std::find_if(tasks.begin(), tasks.end(),
                         [&](const model::DagTask& t) {
                           return t.name() == name;
                         });
        HEDRA_REQUIRE(it != tasks.end(),
                      "journal leave record for unknown task '" + name + "'");
        tasks.erase(it);
      } else {
        throw Error("unknown journal record type: '" +
                    record.substr(0, record.find('\n')) + "'");
      }
    }
    HEDRA_REQUIRE(have_platform || replay.records.empty(),
                  "journal has records but no platform header");
    if (replay.records.empty()) {
      journal_->append(std::string(kPlatformPrefix) + config_.platform.spec());
    }

    snapshot->set = taskset::TaskSet(config_.platform, std::move(tasks));
    snapshot->set.validate();
    if (!snapshot->set.empty()) {
      snapshot->analysis = taskset::contention_rta(snapshot->set);
    }
    snapshot->version = replay.records.size();
    journal_bytes_.store(journal_->bytes_committed(),
                         std::memory_order_relaxed);
  }

  util::MutexLock lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

AdmissionReply AdmissionService::admit(const model::DagTask& task,
                                       util::Deadline deadline,
                                       obs::RequestTrace* trace) {
  AdmissionReply reply;
  reply.task = task.name();

  // One mutation at a time: the analysis below reads `current`, and the
  // publish at the end must swap against exactly that state.
  util::MutexLock writer(writer_mutex_);
  std::shared_ptr<const Snapshot> current = snapshot();
  for (const model::DagTask& existing : current->set) {
    if (existing.name() == task.name()) {
      reply.decision = Decision::kError;
      reply.detail = "task '" + task.name() + "' is already admitted";
      tally_errors_.fetch_add(1, std::memory_order_relaxed);
      return reply;
    }
  }

  // The published set is valid and the name is fresh, so validating the
  // newcomer alone validates the candidate set.
  const int build_span =
      trace != nullptr ? trace->begin("snapshot-build") : -1;
  try {
    current->set.validate_task(task);
  } catch (const Error& e) {
    if (trace != nullptr) trace->end(build_span);
    reply.decision = Decision::kError;
    reply.detail = e.message();
    tally_errors_.fetch_add(1, std::memory_order_relaxed);
    return reply;
  }
  // Copying the set shares every task's graph (a reference-count bump per
  // task).  Materialise the newcomer's graph before it can be published:
  // snapshot readers then only ever read it.
  taskset::TaskSet candidate = current->set.with_appended(task);
  (void)candidate[candidate.size() - 1].dag();
  if (trace != nullptr) trace->end(build_span);

  const int rta_span = trace != nullptr ? trace->begin("rta-fixpoint") : -1;
  util::Budget budget(deadline, config_.max_work_per_request == 0
                                    ? util::Budget::kUnlimitedWork
                                    : config_.max_work_per_request);
  taskset::ContentionAnalysis analysis =
      taskset::contention_rta_appended(candidate, current->analysis, &budget);
  if (trace != nullptr) trace->end(rta_span);

  if (analysis.schedulable) {
    // The analysis never reports schedulable under a truncated run (fail
    // closed), so this branch is a complete exact-rational proof.
    const taskset::TaskAdmission& admitted = analysis.tasks.back();
    reply.decision = Decision::kAdmitted;
    reply.outcome = util::Outcome::kComplete;
    reply.cores = admitted.cores;
    reply.response = admitted.response;
    reply.detail = "proven by exact fixpoint";

    auto next = std::make_shared<Snapshot>();
    // The allocation fault seam: an injected failure here aborts the admit
    // before anything is journalled or published.
    HEDRA_FAULT("serve.snapshot.alloc");
    next->set = std::move(candidate);
    next->analysis = std::move(analysis);
    next->version = current->version + 1;
    // Journal BEFORE publishing: a crash between the two replays to the
    // state we are about to acknowledge, never to one the client was not
    // told about and that was not proven schedulable.
    const model::DagTask& newcomer = next->set[next->set.size() - 1];
    commit(
        [&] { return std::string(kAdmitRecord) + task_to_text(newcomer); },
        std::move(next), std::move(current), trace);
    tally_admitted_.fetch_add(1, std::memory_order_relaxed);
    HEDRA_METRIC("serve.admit.admitted");
    return reply;
  }

  if (analysis.outcome == util::Outcome::kBudgetExhausted) {
    // Degradation ladder, rung 2: the fixpoint ran out of budget, so fall
    // back to the SEED bound — the task's isolated platform bound at every
    // host core, which lower-bounds the contended fixpoint at any
    // allocation.  seed > D is therefore still a proof of infeasibility;
    // anything else stays unproven and is NOT admitted.
    const model::Platform& platform = config_.platform;
    const Frac seed = taskset::SeedBound(task, platform.device_units,
                                         platform.device_speedup)(
        platform.cores);
    if (seed > Frac(task.deadline())) {
      reply.decision = Decision::kRejected;
      reply.outcome = util::Outcome::kComplete;
      reply.detail = "seed bound " + seed.to_string() +
                     " exceeds deadline " + std::to_string(task.deadline()) +
                     " on all " + std::to_string(config_.platform.cores) +
                     " cores (proof survives the budget cut)";
      tally_rejected_seed_.fetch_add(1, std::memory_order_relaxed);
      HEDRA_METRIC("serve.admit.rejected_seed");
      return reply;
    }
    reply.decision = Decision::kProvisional;
    reply.outcome = util::Outcome::kBudgetExhausted;
    reply.detail = "analysis budget exhausted before a proof; not admitted";
    tally_provisional_.fetch_add(1, std::memory_order_relaxed);
    HEDRA_METRIC("serve.admit.provisional");
    return reply;
  }

  reply.decision = Decision::kRejected;
  reply.outcome = util::Outcome::kComplete;
  for (const taskset::TaskAdmission& t : analysis.tasks) {
    if (!t.schedulable) {
      reply.detail = "task '" + t.name + "' misses its deadline (R = " +
                     t.response.to_string() + ")";
      break;
    }
  }
  tally_rejected_exact_.fetch_add(1, std::memory_order_relaxed);
  HEDRA_METRIC("serve.admit.rejected_exact");
  return reply;
}

AdmissionService::LadderTallies AdmissionService::ladder_tallies()
    const noexcept {
  LadderTallies t;
  t.admitted = tally_admitted_.load(std::memory_order_relaxed);
  t.rejected_exact = tally_rejected_exact_.load(std::memory_order_relaxed);
  t.rejected_seed = tally_rejected_seed_.load(std::memory_order_relaxed);
  t.provisional = tally_provisional_.load(std::memory_order_relaxed);
  t.errors = tally_errors_.load(std::memory_order_relaxed);
  return t;
}

AdmissionReply AdmissionService::leave(const std::string& name,
                                       obs::RequestTrace* trace) {
  AdmissionReply reply;
  reply.task = name;

  util::MutexLock writer(writer_mutex_);
  std::shared_ptr<const Snapshot> current = snapshot();
  std::size_t index = 0;
  while (index < current->set.size() && current->set[index].name() != name) {
    ++index;
  }
  if (index == current->set.size()) {
    reply.decision = Decision::kError;
    reply.detail = "no admitted task named '" + name + "'";
    return reply;
  }

  const int build_span =
      trace != nullptr ? trace->begin("snapshot-build") : -1;
  auto next = std::make_shared<Snapshot>();
  HEDRA_FAULT("serve.snapshot.alloc");
  next->set = current->set.without(index);
  next->version = current->version + 1;
  if (trace != nullptr) trace->end(build_span);

  const int rta_span = trace != nullptr ? trace->begin("rta-fixpoint") : -1;
  if (!next->set.empty()) {
    next->analysis =
        taskset::contention_rta_erased(next->set, current->analysis, index);
  }
  if (trace != nullptr) trace->end(rta_span);

  commit([&] { return std::string(kLeavePrefix) + name; }, std::move(next),
         std::move(current), trace);
  reply.decision = Decision::kOk;
  reply.detail = "task '" + name + "' left";
  return reply;
}

void AdmissionService::commit(const std::function<std::string()>& record,
                              std::shared_ptr<const Snapshot> next,
                              std::shared_ptr<const Snapshot> replaced,
                              obs::RequestTrace* trace) {
  if (journal_.has_value()) {
    const int journal_span =
        trace != nullptr ? trace->begin("journal-append+fsync") : -1;
    journal_->append(record());
    journal_bytes_.store(journal_->bytes_committed(),
                         std::memory_order_relaxed);
    if (trace != nullptr) trace->end(journal_span);
    HEDRA_METRIC("serve.journal.appends");
  }
  const int publish_span = trace != nullptr ? trace->begin("publish") : -1;
  publish(std::move(next));
  // Drop the writer's reference to the replaced snapshot inside the span:
  // unless a reader still holds it, its teardown happens here and is
  // attributed.  Tasks shared with `next` only lose a reference count.
  replaced.reset();
  if (trace != nullptr) trace->end(publish_span);
}

std::string AdmissionService::status_line() const {
  const std::shared_ptr<const Snapshot> current = snapshot();
  const LadderTallies ladder = ladder_tallies();
  std::ostringstream os;
  os << "tasks=" << current->set.size()
     << " cores_used=" << current->analysis.cores_used
     << " schedulable=" << (current->set.empty() || current->analysis.schedulable ? 1 : 0)
     << " version=" << current->version << " platform="
     << config_.platform.spec()
     << " journal_bytes=" << journal_bytes()
     << " admitted=" << ladder.admitted
     << " rejected_exact=" << ladder.rejected_exact
     << " rejected_seed=" << ladder.rejected_seed
     << " provisional=" << ladder.provisional
     << " admit_errors=" << ladder.errors;
  return os.str();
}

}  // namespace hedra::serve
