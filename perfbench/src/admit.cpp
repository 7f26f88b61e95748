/// \file admit.cpp
/// The two admission workloads.  A closed-loop client drives the real
/// `admissiond` binary over its stdin/stdout protocol; every decision is
/// then re-derived offline with taskset::contention_rta.  The traced run
/// adds an in-process replay of the same decisions against an
/// AdmissionService on a copy of the same journal, with the benchmark's
/// spans around each public call.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "daemon.h"
#include "graph/dag_io.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hedra::model::DagTask;
using hedra::taskset::TaskSet;
using hedra::taskset::TaskSetGenConfig;

/// Each run holds at least this many decisions, so at least ten samples
/// lie beyond the p95.
constexpr std::size_t kMinDecisions = 200;
/// Candidates the contended warm set must leave room for.
constexpr std::ptrdiff_t kReserve = 8;
/// Size of the contended warm set.
constexpr std::size_t kContendedTasks = 30;

struct AdmitInputs {
  TaskSet warm;
  std::vector<DagTask> pool;  ///< candidates, renamed per request
  std::size_t depth = 1;      ///< requests kept outstanding
  int status_every = 0;       ///< every Nth new request is STATUS (0: none)
  /// Serve from a fsync'd journal (the warm set is replayed from it) or
  /// without persistence (the warm set is admitted at start-up).
  bool journal = true;
};

std::vector<DagTask> tasks_of(const TaskSet& set) {
  return {set.begin(), set.end()};
}

DagTask renamed(const DagTask& task, const std::string& name) {
  return DagTask(task.dag(), task.period(), task.deadline(), name);
}

/// Drops tasks the admission test rejects until the set is one the daemon
/// could hold (a daemon only ever holds tasks it admitted) — and, with a
/// `reserve`, one that stays admissible with the reserve tasks appended,
/// so that candidates admitted while others are still in flight do not
/// push a borderline warm task over its deadline.
TaskSet filter_admissible(TaskSet set, std::vector<DagTask> reserve = {}) {
  for (int round = 0; round < 40; ++round) {
    TaskSet trial(set.platform(), tasks_of(set));
    for (std::size_t i = 0; i < reserve.size(); ++i) {
      trial.add(renamed(reserve[i], "reserve" + std::to_string(i)));
    }
    const auto verdict = hedra::taskset::contention_rta(trial);
    if (verdict.schedulable) return set;
    TaskSet kept(set.platform());
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (verdict.tasks[i].schedulable) kept.add(set[i]);
    }
    if (kept.size() == set.size()) {
      // Only reserve tasks failed: they are infeasible on their own.
      std::vector<DagTask> feasible;
      for (std::size_t i = 0; i < reserve.size(); ++i) {
        if (verdict.tasks[set.size() + i].schedulable) feasible.push_back(reserve[i]);
      }
      reserve = std::move(feasible);
    }
    set = std::move(kept);
  }
  throw std::runtime_error("warm set did not converge to an admissible set");
}

/// perf_report's warm set: 1000 pure-host tasks (seed 71 keeps 999 after
/// filtering), cores for every task plus 64 spare.
AdmitInputs host_inputs(std::uint64_t seed) {
  TaskSetGenConfig gen;
  gen.num_tasks = 1000;
  gen.total_utilization = 0.25 * gen.num_tasks;
  gen.dag_params = hedra::gen::HierarchicalParams::small_tasks();
  gen.dag_params.min_nodes = 10;
  gen.dag_params.max_nodes = 40;
  gen.dag_params.num_devices = 0;
  gen.cores = gen.num_tasks + 64;
  hedra::Rng rng(seed);
  AdmitInputs in;
  in.warm = filter_admissible(hedra::taskset::generate_task_set(gen, rng));
  TaskSetGenConfig cand = gen;
  cand.num_tasks = 64;
  cand.total_utilization = 0.25 * cand.num_tasks;
  hedra::Rng cand_rng = rng.fork();
  in.pool = tasks_of(hedra::taskset::generate_task_set(cand, cand_rng));
  in.depth = 1;
  return in;
}

/// A few dozen small tasks sharing two accelerator classes; candidates
/// come from the same generator, so the carry-in fixpoint rejects some.
AdmitInputs contended_inputs(std::uint64_t seed) {
  TaskSetGenConfig gen;
  gen.num_tasks = 48;
  gen.dag_params = hedra::gen::HierarchicalParams::small_tasks();
  gen.dag_params.max_depth = 3;
  gen.dag_params.n_par = 4;
  gen.dag_params.min_nodes = 10;
  gen.dag_params.max_nodes = 40;
  gen.dag_params.wcet_max = 50;
  gen.dag_params.num_devices = 2;
  gen.coff_ratio = 0.1;
  gen.device_units = {4, 4};
  gen.cores = 96;
  gen.total_utilization = gen.num_tasks / 6.0;
  hedra::Rng rng(seed);
  TaskSet generated = hedra::taskset::generate_task_set(gen, rng);
  TaskSetGenConfig cand = gen;
  cand.num_tasks = 64;
  cand.total_utilization = cand.num_tasks / 6.0;
  hedra::Rng cand_rng = rng.fork();
  AdmitInputs in;
  in.pool = tasks_of(hedra::taskset::generate_task_set(cand, cand_rng));
  // Headroom for the candidates a depth-16 client keeps admitted at once,
  // then the first kContendedTasks survivors, so the analysed set has the
  // same size for every seed.
  const std::vector<DagTask> reserve(in.pool.begin(), in.pool.begin() + kReserve);
  const TaskSet admissible = filter_admissible(std::move(generated), reserve);
  std::vector<DagTask> kept = tasks_of(admissible);
  if (kept.size() > kContendedTasks) {
    kept.erase(kept.begin() + kContendedTasks, kept.end());
  }
  in.warm = filter_admissible(TaskSet(admissible.platform(), std::move(kept)), reserve);
  in.depth = 16;
  in.status_every = 8;
  // Without a journal: at depth 16 every decision waits on the fsyncs
  // queued ahead of it, and fsync latency on shared cloud disks swings
  // threefold over minutes, which no run length averages out.
  in.journal = false;
  return in;
}

enum class Verb { kAdmit, kLeave, kStatus };

/// One request/reply pair, in send order (= the daemon's processing
/// order: it serves its queue FIFO and the client never overfills it).
struct Exchange {
  Verb verb = Verb::kStatus;
  std::string name;
  std::size_t pool_index = 0;
  std::string request;
  std::int64_t sent_ns = 0;
  double latency_us = 0.0;
  std::string reply;
  bool admitted = false;
  bool failed = false;
};

struct ClientRun {
  std::vector<Exchange> log;
  double wall_s = 0.0;
  std::vector<double> decision_us;  ///< ADMIT and LEAVE round trips
  std::vector<double> read_us;      ///< STATUS round trips
  std::vector<double> queue_depths; ///< `queue=` of each STATUS reply
  std::string final_status;
  double rss_mb = 0.0;
  bool quit_ok = false;
};

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

/// Value of `key=` in a space-separated reply line; -1 when absent.
double field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return -1.0;
  return std::stod(line.substr(at + key.size() + 2));
}

std::string admit_request(const DagTask& task, const std::string& name) {
  std::ostringstream os;
  os << "ADMIT " << name << " period " << task.period() << " deadline "
     << task.deadline() << "\n"
     << hedra::graph::write_dag_text(task.dag()) << "endtask\n";
  return os.str();
}

/// Classifies a reply.  SHED, ERROR, PROVISIONAL, a reply for another
/// request or no reply at all is a failed operation; REJECTED is a proof.
void classify(Exchange& ex) {
  switch (ex.verb) {
    case Verb::kAdmit:
      ex.admitted = starts_with(ex.reply, "ADMITTED " + ex.name + " ");
      ex.failed = !ex.admitted && !starts_with(ex.reply, "REJECTED " + ex.name + " ");
      break;
    case Verb::kLeave:
      ex.failed = !starts_with(ex.reply, "OK " + ex.name + " ");
      break;
    case Verb::kStatus:
      ex.failed = !starts_with(ex.reply, "OK tasks=");
      break;
  }
}

/// Spawns a daemon holding the warm set — replayed from a fresh copy of
/// `master_journal`, or admitted over the protocol without a journal — and
/// times start to the reply of a STATUS sent right behind.
std::unique_ptr<Daemon> start_daemon(const Options& options,
                                     const AdmitInputs& in,
                                     const std::string& master_journal,
                                     const std::string& tag,
                                     const std::string& trace_out,
                                     double* startup_s) {
  std::vector<std::string> args = {"--platform", in.warm.platform().spec()};
  if (in.journal) {
    const std::string journal = options.work_dir + "/" + tag + ".journal";
    fs::copy_file(master_journal, journal, fs::copy_options::overwrite_existing);
    args.push_back("--journal");
    args.push_back(journal);
  }
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::string warm_up;
  if (!in.journal) {
    for (const DagTask& task : in.warm) warm_up += admit_request(task, task.name());
  }
  const std::int64_t start = now_ns();
  auto daemon = std::make_unique<Daemon>(
      options.admissiond, args, options.work_dir + "/" + tag + ".stderr");
  daemon->send(warm_up + "STATUS\n");
  for (std::size_t i = 0; !in.journal && i < in.warm.size(); ++i) {
    const auto reply = daemon->read_line(60.0);
    if (!reply || !starts_with(*reply, "ADMITTED " + in.warm[i].name() + " ")) {
      throw std::runtime_error("warm task not admitted: " + reply.value_or("<no reply>"));
    }
  }
  const auto first = daemon->read_line(120.0);
  if (!first || !starts_with(*first, "OK tasks=")) {
    throw std::runtime_error("admissiond did not start: " +
                             first.value_or("<no reply>"));
  }
  if (startup_s != nullptr) *startup_s = seconds_since(start);
  return daemon;
}

/// The closed-loop client: keeps `in.depth` requests outstanding until
/// `seconds` have passed and at least kMinDecisions decisions are in, then
/// sends the LEAVEs still owed and drains.
ClientRun drive(Daemon& daemon, const AdmitInputs& in, double seconds,
                std::uint64_t& next_candidate) {
  ClientRun run;
  std::deque<std::size_t> inflight;
  std::deque<std::size_t> owed_leaves;
  std::uint64_t fresh = 0;
  const std::int64_t start = now_ns();
  const auto running = [&] {
    return seconds_since(start) < seconds ||
           run.decision_us.size() < kMinDecisions;
  };
  const auto send_next = [&](bool allow_new) {
    Exchange ex;
    if (!owed_leaves.empty()) {
      const Exchange& admitted = run.log[owed_leaves.front()];
      owed_leaves.pop_front();
      ex.verb = Verb::kLeave;
      ex.name = admitted.name;
      ex.pool_index = admitted.pool_index;
      ex.request = "LEAVE " + ex.name + "\n";
    } else if (!allow_new) {
      return false;
    } else if (in.status_every > 0 && ++fresh % in.status_every == 0) {
      ex.verb = Verb::kStatus;
      ex.request = "STATUS\n";
    } else {
      const std::uint64_t k = next_candidate++;
      ex.verb = Verb::kAdmit;
      ex.name = "c" + std::to_string(k);
      ex.pool_index = static_cast<std::size_t>(k % in.pool.size());
      ex.request = admit_request(in.pool[ex.pool_index], ex.name);
    }
    ex.sent_ns = now_ns();
    daemon.send(ex.request);
    run.log.push_back(std::move(ex));
    inflight.push_back(run.log.size() - 1);
    return true;
  };

  while (inflight.size() < in.depth && send_next(true)) {
  }
  while (!inflight.empty()) {
    const auto line = daemon.read_line(60.0);
    if (!line) {
      for (const std::size_t i : inflight) run.log[i].failed = true;
      break;
    }
    const std::size_t index = inflight.front();
    inflight.pop_front();
    Exchange& ex = run.log[index];
    ex.latency_us = static_cast<double>(now_ns() - ex.sent_ns) * 1e-3;
    ex.reply = *line;
    classify(ex);
    if (ex.verb == Verb::kStatus) {
      run.read_us.push_back(ex.latency_us);
      if (!ex.failed) run.queue_depths.push_back(field(ex.reply, "queue"));
    } else {
      run.decision_us.push_back(ex.latency_us);
    }
    if (ex.admitted) owed_leaves.push_back(index);
    const bool allow_new = running();
    while (inflight.size() < in.depth && send_next(allow_new)) {
    }
  }
  run.wall_s = seconds_since(start);

  try {
    daemon.send("STATUS\n");
    run.final_status = daemon.read_line(60.0).value_or("<no reply>");
  } catch (const std::exception& e) {
    run.final_status = e.what();  // the daemon is gone; account() reports it
  }
  run.rss_mb = daemon.peak_rss_mb();
  run.quit_ok = daemon.quit();
  return run;
}

/// Re-derives every decision of `run` with the offline exact-rational
/// test, replaying the admitted state in the daemon's processing order.
/// Returns the number of decisions checked.
std::size_t check_decisions(const AdmitInputs& in, const ClientRun& run,
                            RunResult& result) {
  struct Verdict {
    bool schedulable = false;
    int cores = 0;
    std::string response;
  };
  std::vector<DagTask> state = tasks_of(in.warm);
  std::vector<std::size_t> extras;  ///< pool index of each admitted extra
  // The verdict depends on the task parameters and their order, not on
  // the names, so it is cached by (admitted extras, candidate).
  std::map<std::string, Verdict> cache;
  std::size_t checked = 0;
  for (const Exchange& ex : run.log) {
    if (ex.failed || ex.verb == Verb::kStatus) continue;
    if (ex.verb == Verb::kLeave) {
      const auto first_extra = state.begin() + static_cast<std::ptrdiff_t>(in.warm.size());
      const auto it = std::find_if(first_extra, state.end(), [&](const DagTask& t) {
        return t.name() == ex.name;
      });
      if (it == state.end()) {
        result.fail_check("LEAVE of a task that was never admitted: " + ex.name);
        continue;
      }
      extras.erase(extras.begin() + (it - first_extra));
      state.erase(it);
      continue;
    }
    std::string key;
    for (const std::size_t e : extras) key += std::to_string(e) + ",";
    key += "|" + std::to_string(ex.pool_index);
    auto found = cache.find(key);
    if (found == cache.end()) {
      TaskSet candidate(in.warm.platform(), state);
      candidate.add(renamed(in.pool[ex.pool_index], ex.name));
      const auto analysis = hedra::taskset::contention_rta(candidate);
      Verdict v;
      v.schedulable = analysis.schedulable;
      v.cores = analysis.tasks.back().cores;
      std::ostringstream os;
      os << analysis.tasks.back().response;
      v.response = os.str();
      found = cache.emplace(key, v).first;
    }
    const Verdict& v = found->second;
    ++checked;
    if (ex.admitted != v.schedulable) {
      result.fail_check("decision for " + ex.name + " differs from offline (" +
                        (v.schedulable ? "schedulable" : "unschedulable") +
                        "): " + ex.reply);
    } else if (ex.admitted) {
      const std::string expect = "ADMITTED " + ex.name + " cores=" +
                                 std::to_string(v.cores) + " response=" +
                                 v.response + " ";
      if (!starts_with(ex.reply, expect)) {
        result.fail_check("admitted bound for " + ex.name +
                          " differs from offline: " + ex.reply);
      }
    }
    if (ex.admitted) {
      state.push_back(renamed(in.pool[ex.pool_index], ex.name));
      extras.push_back(ex.pool_index);
    }
  }
  return checked;
}

/// Checks and tallies one client run into `result`.
void account(const AdmitInputs& in, const ClientRun& run, RunResult& result) {
  for (const Exchange& ex : run.log) {
    ++result.attempted;
    if (ex.failed) ++result.failed;
  }
  if (!run.quit_ok) result.fail_check("admissiond did not exit cleanly");
  const double tasks = field(run.final_status, "tasks");
  if (tasks != static_cast<double>(in.warm.size())) {
    result.fail_check("final STATUS reports " + run.final_status +
                      ", expected tasks=" + std::to_string(in.warm.size()));
  }
  const std::size_t checked = check_decisions(in, run, result);
  result.details.emplace_back("decisions_checked", std::to_string(checked));
}

std::string write_master_journal(const Options& options, const AdmitInputs& in) {
  const std::string path = options.work_dir + "/warm.journal";
  fs::remove(path);
  hedra::serve::Journal journal(path);
  journal.append("platform " + in.warm.platform().spec());
  for (const DagTask& task : in.warm) {
    journal.append("admit\n" + hedra::serve::task_to_text(task));
  }
  return path;
}

/// Appends every "queue-wait" duration (us) of a chrome://tracing export.
void read_queue_waits(const std::string& trace_path, std::vector<double>& waits) {
  std::ifstream file(trace_path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const std::string marker = "\"name\":\"queue-wait\"";
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    const std::size_t dur = text.find("\"dur\":", at);
    if (dur == std::string::npos) break;
    waits.push_back(std::stod(text.substr(dur + 6)));
  }
}

/// The traced run's in-process half: replays the daemon run's decisions
/// against an AdmissionService holding the same state (on a copy of the
/// same journal), with spans around every call, and probes the parse and
/// journal layers.
void in_process_layers(const Options& options, const AdmitInputs& in,
                       const std::string& master_journal,
                       const ClientRun& reference, double client_p50_us,
                       SpanLog& spans, RunResult& result) {
  hedra::serve::AdmissionConfig config;
  config.platform = in.warm.platform();
  if (in.journal) {
    config.journal_path = options.work_dir + "/inproc.journal";
    fs::copy_file(master_journal, config.journal_path,
                  fs::copy_options::overwrite_existing);
  }
  hedra::serve::AdmissionService service(config);
  if (!in.journal) {
    for (const DagTask& task : in.warm) {
      if (service.admit(task).decision != hedra::serve::Decision::kAdmitted) {
        throw std::runtime_error("warm task " + task.name() + " not admitted in-process");
      }
    }
  }

  std::vector<double> admit_us, leave_us, build_us, rta_us, unattributed_us,
      call_us;
  std::uint64_t solves = 0, iterations = 0, frac_path = 0, published = 0;
  std::uint64_t decisions = 0, fsyncs = 0, journal_bytes = 0;
  std::uint64_t request = 0;
  const auto add_telemetry = [&] {
    const auto snapshot = service.snapshot();
    if (snapshot->set.empty()) return;
    const auto& t = snapshot->analysis.telemetry;
    solves += t.fixpoint_solves;
    iterations += t.iterations;
    frac_path += t.frac_path;
    ++published;
  };
  for (const Exchange& ex : reference.log) {
    if (ex.failed || ex.verb == Verb::kStatus) continue;
    ++request;
    ++decisions;
    const std::uint64_t bytes_before = service.journal_bytes();
    if (ex.verb == Verb::kAdmit) {
      const DagTask task = renamed(in.pool[ex.pool_index], ex.name);
      hedra::obs::RequestTrace trace(request);
      const int root = spans.begin("serve.admit", request);
      const auto reply = service.admit(task, hedra::util::Deadline::never(), &trace);
      spans.end(root);
      const double total = spans.duration_us(root);
      double attributed = 0.0;
      for (const auto& s : trace.spans()) {
        const int child = spans.add(s.name, request, root, s.start_ns, s.end_ns);
        const double us = spans.duration_us(child);
        attributed += us;
        if (s.name == "snapshot-build") build_us.push_back(us);
        if (s.name == "rta-fixpoint") rta_us.push_back(us);
      }
      admit_us.push_back(total);
      call_us.push_back(total);
      unattributed_us.push_back(total - attributed);
      const bool admitted = reply.decision == hedra::serve::Decision::kAdmitted;
      if (admitted != ex.admitted) {
        result.fail_check("in-process decision for " + ex.name +
                          " differs from the daemon's: " + ex.reply);
      }
      if (admitted) add_telemetry();
    } else {
      const int root = spans.begin("serve.leave", request);
      const auto reply = service.leave(ex.name);
      spans.end(root);
      leave_us.push_back(spans.duration_us(root));
      call_us.push_back(spans.duration_us(root));
      if (reply.decision != hedra::serve::Decision::kOk) {
        result.fail_check("in-process LEAVE of " + ex.name + " failed: " + reply.detail);
      }
      add_telemetry();
    }
    const std::uint64_t delta = service.journal_bytes() - bytes_before;
    if (delta > 0) ++fsyncs;  // one Journal::append = one write + one fsync
    journal_bytes += delta;
  }

  // Parse layer: the request texts the daemon was sent.
  std::vector<double> parse_us;
  std::vector<double> append_us;
  {
    hedra::serve::Journal probe(options.work_dir + "/probe.journal");
    std::size_t appended = 0;
    for (const Exchange& ex : reference.log) {
      if (ex.verb != Verb::kAdmit) continue;
      std::istringstream stream(ex.request);
      const int root = spans.begin("serve.parse", ++request);
      const auto parsed = hedra::serve::read_request(stream);
      const auto dag = hedra::graph::read_dag_text(parsed->dag_text);
      spans.end(root);
      if (dag.num_nodes() == 0) result.fail_check("parsed an empty DAG");
      parse_us.push_back(spans.duration_us(root));
      if (appended++ < 100) {
        const std::string record =
            "admit\n" + hedra::serve::task_to_text(renamed(in.pool[ex.pool_index], ex.name));
        const int span = spans.begin("serve.journal_append", request);
        probe.append(record);
        spans.end(span);
        append_us.push_back(spans.duration_us(span));
      }
    }
  }

  const double n = static_cast<double>(decisions);
  result.add("serve.admit_us", median(admit_us), "us");
  result.add("serve.leave_us", median(leave_us), "us");
  result.add("serve.snapshot_build_us", median(build_us), "us");
  result.add("serve.unattributed_us", median(unattributed_us), "us");
  result.add("serve.client_gap_us", client_p50_us - median(call_us), "us");
  result.add("serve.parse_us", median(parse_us), "us");
  result.add("serve.journal_append_us", median(append_us), "us");
  result.add("serve.fsyncs_per_decision", static_cast<double>(fsyncs) / n, "count");
  result.add("serve.journal_bytes_per_decision", static_cast<double>(journal_bytes) / n, "B");
  result.add("taskset.rta_us", median(rta_us), "us");
  result.add("taskset.fixpoint_solves_per_decision",
             published == 0 ? 0.0 : static_cast<double>(solves) / static_cast<double>(published),
             "count");
  result.add("taskset.iterations_per_solve",
             solves == 0 ? 0.0 : static_cast<double>(iterations) / static_cast<double>(solves),
             "count");
  result.add("taskset.frac_path_share",
             solves == 0 ? 0.0 : static_cast<double>(frac_path) / static_cast<double>(solves),
             "ratio");
}

RunResult run_admit(const Options& options, const AdmitInputs& in) {
  RunResult result;
  fs::create_directories(options.work_dir);
  const std::string master = in.journal ? write_master_journal(options, in) : "";
  std::uint64_t next_candidate = 0;
  result.details.emplace_back("warm_tasks", std::to_string(in.warm.size()));
  result.details.emplace_back("platform", json_string(in.warm.platform().spec()));

  if (!options.trace) {
    // Set-up: daemon start until it serves the warm set.
    SetupTrials setup([&] {
      double s = 0.0;
      auto daemon = start_daemon(options, in, master, "setup", "", &s);
      if (!daemon->quit()) result.fail_check("admissiond did not exit cleanly");
      return s;
    });
    setup.take_batch();
    auto daemon = start_daemon(options, in, master, "measure", "", nullptr);
    const ClientRun run = drive(*daemon, in, options.seconds, next_candidate);
    setup.take_batch();
    account(in, run, result);
    result.add("latency_p50_ms", median(run.decision_us) * 1e-3, "ms");
    result.add("setup_s", setup.median_s(), "s");
    result.add("peak_rss_mb", run.rss_mb, "MB");
    result.details.emplace_back("decisions", std::to_string(run.decision_us.size()));
    result.details.emplace_back("decision_p95_us", json_number(quantile(run.decision_us, 0.95)));
    return result;
  }

  // Traced run: daemon phases without and with the program's own
  // --trace-out export (for queue wait), in ABBA order so drift cancels in
  // the overhead, then the in-process replay of the first phase's
  // decisions with the benchmark's spans.
  const double phase_s = options.seconds / 6.0;
  std::vector<ClientRun> plain;
  std::vector<double> plain_us, traced_us, read_us, depths, waits;
  double plain_wall_s = 0.0;
  for (int phase = 0; phase < 4; ++phase) {
    const bool with_trace = phase == 1 || phase == 2;
    const std::string tag = (with_trace ? "traced" : "plain") + std::to_string(phase);
    const std::string trace_path =
        with_trace ? options.work_dir + "/daemon_trace" + std::to_string(phase) + ".json" : "";
    auto daemon = start_daemon(options, in, master, tag, trace_path, nullptr);
    ClientRun run = drive(*daemon, in, phase_s, next_candidate);
    daemon.reset();
    account(in, run, result);
    if (with_trace) {
      read_queue_waits(trace_path, waits);
      traced_us.insert(traced_us.end(), run.decision_us.begin(), run.decision_us.end());
      continue;
    }
    plain_us.insert(plain_us.end(), run.decision_us.begin(), run.decision_us.end());
    plain_wall_s += run.wall_s;
    read_us.insert(read_us.end(), run.read_us.begin(), run.read_us.end());
    depths.insert(depths.end(), run.queue_depths.begin(), run.queue_depths.end());
    if (run.queue_depths.empty()) depths.push_back(field(run.final_status, "queue"));
    plain.push_back(std::move(run));
  }

  SpanLog spans;
  in_process_layers(options, in, master, plain.front(), median(plain_us), spans, result);

  const double p50 = median(plain_us);
  result.add("decision_p95_us", quantile(plain_us, 0.95), "us");
  result.add("decisions_per_s", static_cast<double>(plain_us.size()) / plain_wall_s, "1/s");
  if (!read_us.empty()) result.add("read_p50_us", median(read_us), "us");
  result.add("serve.queue_depth", mean(depths), "count");
  result.add("serve.queue_wait_us", median(waits), "us");
  result.add("obs.trace_overhead_pct", 100.0 * (median(traced_us) - p50) / p50, "%");
  write_text_file(options.work_dir + "/spans.json", spans.chrome_json());
  return result;
}

}  // namespace

RunResult run_admit_host(const Options& options) {
  return run_admit(options, host_inputs(options.seed));
}

RunResult run_admit_contended(const Options& options) {
  return run_admit(options, contended_inputs(options.seed));
}

}  // namespace perfbench
