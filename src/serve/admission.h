#pragma once

/// \file admission.h
/// The admission-control core: a long-lived service wrapping
/// taskset::contention_rta (the paper's federated admission test) with the
/// three properties a batch analysis never needed —
///
///  1. *Bounded-latency answers.*  Every request carries a util::Deadline;
///     the analysis consumes a Budget cooperatively and, on exhaustion,
///     degrades down a strict ladder:
///
///         exact fixpoint admitted            -> ADMITTED
///         exact fixpoint rejects (complete)  -> REJECTED   (proof)
///         budget cut, seed bound > deadline  -> REJECTED   (still a proof:
///                                               the seed bound LOWER-bounds
///                                               the contended fixpoint)
///         budget cut, seed bound <= deadline -> PROVISIONAL (unproven,
///                                               NOT admitted)
///
///     The ladder can under-admit, never over-admit: ADMITTED is only ever
///     answered on a complete exact-rational proof.
///
///  2. *RCU-style snapshots.*  The admitted state is an immutable Snapshot
///     behind a shared pointer; readers (status queries, concurrent
///     inspectors) copy the pointer while the single writer builds a
///     successor and swaps it in after the journal commit.  The pointer
///     copy and the swap are the only work under the snapshot lock, so a
///     reader never waits on a mutation's analysis or journal write.
///     Successive snapshots share their task records: each DagTask holds
///     its graph behind a shared pointer, so building a successor copies
///     reference counts, not graphs, and the successor's analysis is
///     derived incrementally from the current one
///     (taskset::contention_rta_appended / contention_rta_erased) — only
///     the tasks a one-task change can affect are re-solved.
///
///  3. *Crash safety.*  Every state change is journalled (serve/journal.h)
///     BEFORE the snapshot swap, so a restart replays admit/leave records
///     to bit-identical admitted state: to_text() of the recovered set
///     equals to_text() of the pre-crash set.
///
/// Thread model: mutations (admit()/leave()) serialise on an internal
/// writer mutex — the journal handle and the snapshot-swap publish path are
/// machine-checked (Clang thread-safety analysis) to only ever run under
/// it; snapshot() is a pointer copy under the snapshot lock, safe from any
/// thread.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "serve/journal.h"
#include "taskset/contention_rta.h"
#include "taskset/taskset.h"
#include "util/deadline.h"
#include "util/thread_annotations.h"

namespace hedra::serve {

/// The service's answer to one request.
enum class Decision {
  kAdmitted,     ///< proven schedulable; state updated
  kRejected,     ///< proven unschedulable (exact or seed-bound proof)
  kProvisional,  ///< budget exhausted before a proof; NOT admitted
  kOk,           ///< non-admission operation succeeded (leave, status)
  kError,        ///< malformed or inapplicable request; state unchanged
};

[[nodiscard]] const char* to_string(Decision decision) noexcept;

/// Immutable admitted state.  Every mutation publishes a successor that
/// shares the task records (graphs) of this one and differs by one task.
struct Snapshot {
  taskset::TaskSet set;
  /// Equal to contention_rta(set) (complete, unlimited budget) in every
  /// field except `telemetry`; meaningful only when the set is non-empty.
  /// `telemetry` counts the analysis work of the mutation that published
  /// this snapshot — the incremental solves of that ADMIT or LEAVE, or the
  /// full analysis after journal replay — not that of a full analysis.
  taskset::ContentionAnalysis analysis;
  std::uint64_t version = 0;  ///< monotone, bumped per mutation
};

struct AdmissionConfig {
  model::Platform platform;
  /// Journal file; empty disables persistence (tests, ephemeral runs).
  std::string journal_path;
  /// Iteration/seed-evaluation work cap per request on top of the caller's
  /// deadline (0 = unlimited): a belt against clock jumps.
  std::uint64_t max_work_per_request = 0;
};

struct AdmissionReply {
  Decision decision = Decision::kError;
  std::string task;    ///< the request's task name (empty for status ops)
  std::string detail;  ///< human-readable reason / summary
  util::Outcome outcome = util::Outcome::kComplete;
  int cores = 0;       ///< admitted task's dedicated host cores
  Frac response;       ///< admitted task's proven response bound
};

class AdmissionService {
 public:
  /// Opens (and replays) the journal, reconstructing the admitted state.
  /// Throws hedra::Error on journal corruption or a platform mismatch
  /// between the journal and `config` — refusing to serve is safer than
  /// re-interpreting admitted state on the wrong platform.
  explicit AdmissionService(AdmissionConfig config);

  /// The current admitted state (a pointer copy; never blocked by a
  /// mutation in progress).
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const
      HEDRA_EXCLUDES(snapshot_mutex_) {
    util::MutexLock lock(snapshot_mutex_);
    return snapshot_;
  }

  /// Runs the admission test for `task` joining the current set under
  /// `deadline`.  See the degradation ladder in the file comment.  When
  /// `trace` is non-null the phases are recorded as spans (snapshot-build,
  /// rta-fixpoint, journal-append+fsync, publish — the last one includes
  /// releasing the replaced snapshot).
  [[nodiscard]] AdmissionReply admit(const model::DagTask& task,
                                     util::Deadline deadline = {},
                                     obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_);

  /// Removes a previously admitted task.  `trace` records the same phase
  /// spans as admit().
  [[nodiscard]] AdmissionReply leave(const std::string& name,
                                     obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_);

  /// How often each rung of the degradation ladder answered (relaxed
  /// tallies; see the ladder in the file comment).
  struct LadderTallies {
    std::uint64_t admitted = 0;        ///< complete exact proof, admitted
    std::uint64_t rejected_exact = 0;  ///< complete exact proof, rejected
    std::uint64_t rejected_seed = 0;   ///< budget cut, seed-bound proof
    std::uint64_t provisional = 0;     ///< budget cut, no proof
    std::uint64_t errors = 0;          ///< invalid requests / faults
  };
  [[nodiscard]] LadderTallies ladder_tallies() const noexcept;

  /// Journal bytes durably committed so far (0 without a journal).
  [[nodiscard]] std::uint64_t journal_bytes() const noexcept {
    return journal_bytes_.load(std::memory_order_relaxed);
  }

  /// One-line state summary (the STATUS protocol response body): admitted
  /// state, then journal bytes and the degradation-ladder tallies.
  [[nodiscard]] std::string status_line() const;

  [[nodiscard]] const model::Platform& platform() const noexcept {
    return config_.platform;
  }

 private:
  /// The RCU publish: readers holding the previous shared_ptr keep a valid
  /// snapshot; new readers see `next`.  Requiring the writer mutex here
  /// makes "journal before publish, one writer at a time" a compile-time
  /// fact instead of a comment.
  void publish(std::shared_ptr<const Snapshot> next)
      HEDRA_REQUIRES(writer_mutex_) HEDRA_EXCLUDES(snapshot_mutex_) {
    util::MutexLock lock(snapshot_mutex_);
    snapshot_.swap(next);  // the replaced pointer is released unlocked
  }

  /// The tail every mutation shares: journal `record()` (built only when a
  /// journal is configured), then publish `next` and drop the writer's
  /// reference to `replaced`, the snapshot it supersedes.  The journal
  /// append throws on failure, so nothing is published unless the record
  /// is durable.
  void commit(const std::function<std::string()>& record,
              std::shared_ptr<const Snapshot> next,
              std::shared_ptr<const Snapshot> replaced,
              obs::RequestTrace* trace) HEDRA_REQUIRES(writer_mutex_);

  AdmissionConfig config_;
  /// Serialises mutations; uncontended in the single-worker server.
  util::Mutex writer_mutex_;
  std::optional<Journal> journal_ HEDRA_GUARDED_BY(writer_mutex_);
  /// Guards only the pointer below: a plain mutex rather than
  /// std::atomic<std::shared_ptr>, whose libstdc++ spin lock releases a
  /// reader's hold with a relaxed store, so a reader's copy and the
  /// writer's swap are not ordered under the C++ memory model (and
  /// ThreadSanitizer reports the pair).
  mutable util::Mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_ HEDRA_GUARDED_BY(snapshot_mutex_);
  /// Mirror of journal_->bytes_committed(), readable without the writer
  /// mutex so status_line() stays lock-free.
  std::atomic<std::uint64_t> journal_bytes_{0};
  std::atomic<std::uint64_t> tally_admitted_{0};
  std::atomic<std::uint64_t> tally_rejected_exact_{0};
  std::atomic<std::uint64_t> tally_rejected_seed_{0};
  std::atomic<std::uint64_t> tally_provisional_{0};
  std::atomic<std::uint64_t> tally_errors_{0};
};

/// One task serialised as its `task ... endtask` block — the journal's
/// admit-record body and the ADMIT request body, byte-identical to the
/// corresponding lines of TaskSet::to_text().
[[nodiscard]] std::string task_to_text(const model::DagTask& task);

}  // namespace hedra::serve
