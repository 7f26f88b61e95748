/// \file admissiond.cpp
/// The admission-control daemon: hedra's contention-RTA (taskset/
/// contention_rta.h, the paper's federated admission test hardened with
/// per-request deadlines) behind a line protocol on stdin/stdout.
///
///     admissiond --platform 4:gpu*2,dsp --journal /var/lib/hedra.journal
///
/// speaks the protocol of serve/protocol.h: ADMIT (with a dag_io body
/// terminated by `endtask`), LEAVE, STATUS, QUIT.  Restarting with the same
/// --journal replays the admitted state bit-identically.
///
/// `--smoke` is the self-checking mode CI runs: it generates random task
/// sets with the fig12 generator, pipes every task through the daemon's
/// own protocol loop (real parser, real deadlines), then sends a LEAVE and
/// a re-ADMIT of each set's first admitted task, and re-derives each
/// decision with the offline exact-rational contention_rta — any
/// divergence (an ADMIT the offline test rejects, or vice versa, or an
/// ADMITTED line whose cores= or response= differs from the offline
/// bound) is a hard failure.  PROVISIONAL answers are checked for
/// fail-closedness only: they must never correspond to an applied
/// admission.
///
/// `--faults '<spec>'` (or HEDRA_FAULTS in the environment) arms the fault
/// registry first, so the smoke doubles as a fail-closed property check
/// under injected faults.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "taskset/gen.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/fault.h"

namespace {

using hedra::serve::AdmissionConfig;
using hedra::serve::AdmissionService;
using hedra::serve::ServerConfig;
using hedra::serve::ServerStats;

/// `ADMIT` request text for `task`.
std::string admit_request(const hedra::model::DagTask& task) {
  std::ostringstream os;
  os << "ADMIT " << task.name() << " period " << task.period()
     << " deadline " << task.deadline() << "\n"
     << hedra::graph::write_dag_text(task.dag()) << "endtask\n";
  return os.str();
}

/// Runs `script` (QUIT-terminated) through the protocol loop of `service`
/// and returns the reply lines keyed by task name.  Responses are
/// correlated by name, not order: under overload SHED lines from the
/// reader overtake queued responses (documented in server.h), so
/// positional matching would misattribute decisions.  Each script names a
/// task at most once.
std::map<std::string, std::string> serve_script(
    AdmissionService& service, const std::string& script,
    const ServerConfig& server_config) {
  std::istringstream in(script);
  std::ostringstream out;
  (void)hedra::serve::run_server(in, out, service, server_config);
  std::map<std::string, std::string> reply_for;
  std::istringstream responses(out.str());
  std::string line;
  while (std::getline(responses, line)) {
    std::istringstream fields(line);
    std::string decision, name;
    fields >> decision >> name;
    if (!name.empty()) reply_for.emplace(name, line);
  }
  return reply_for;
}

/// One generated set's run: its ADMIT replies, then the replies to a LEAVE
/// and a re-ADMIT of the first admitted task (empty when none was), and
/// the number of tasks the daemon held at the end.
struct SmokeRun {
  std::map<std::string, std::string> admits;
  std::string first_admitted;
  std::string leave_reply;
  std::string readmit_reply;
  std::size_t final_size = 0;
};

bool is_admitted(const std::string& line) {
  return line.rfind("ADMITTED", 0) == 0;
}

/// Pipes `count` generated task sets through a fresh service's protocol
/// loop and cross-checks every decision offline.  Returns the number of
/// divergences (0 = pass).
int run_smoke(int count, int tasks_per_set, std::uint64_t seed,
              const ServerConfig& server_config) {
  hedra::taskset::TaskSetGenConfig gen_config;
  gen_config.num_tasks = tasks_per_set;
  gen_config.total_utilization = 2.5;
  gen_config.dag_params.max_depth = 3;
  gen_config.dag_params.n_par = 4;
  gen_config.dag_params.min_nodes = 10;
  gen_config.dag_params.max_nodes = 40;
  gen_config.dag_params.wcet_max = 50;
  gen_config.dag_params.num_devices = 2;
  gen_config.cores = 4;
  const std::vector<hedra::taskset::TaskSet> sets =
      hedra::taskset::generate_taskset_batch(gen_config, count, seed);

  // Two severities: an unsound ADMIT is fatal always; a softer mismatch
  // (REJECT/PROVISIONAL/ERROR where offline admits) is under-admission —
  // fatal only when nothing can legitimately truncate the analysis, i.e.
  // expected fail-closed behaviour under armed faults or a per-request
  // deadline.
  const bool lenient = hedra::fault::enabled() ||
                       server_config.request_deadline_sec > 0.0;
  int unsound = 0;
  int mismatches = 0;
  int checked = 0;

  // Phase 1: drive every set through the daemon's protocol loop — with any
  // armed faults live: every task is ADMITted, then the first admitted
  // task LEAVEs and is ADMITted again (last in priority order), each in a
  // session of its own.  Replies and final state sizes are collected so
  // the offline referee below can run with injection DISABLED (the
  // referee shares the instrumented analysis code; a fault firing inside
  // the referee would corrupt the verdict it is refereeing).
  std::vector<SmokeRun> runs;
  for (int si = 0; si < count; ++si) {
    const hedra::taskset::TaskSet& set = sets[static_cast<std::size_t>(si)];
    AdmissionConfig config;
    config.platform = set.platform();
    AdmissionService service(config);
    SmokeRun run;
    std::string script;
    for (const auto& task : set) script += admit_request(task);
    run.admits = serve_script(service, script + "QUIT\n", server_config);
    for (const auto& task : set) {
      const auto it = run.admits.find(task.name());
      if (it != run.admits.end() && is_admitted(it->second)) {
        run.first_admitted = task.name();
        const auto left = serve_script(
            service, "LEAVE " + task.name() + "\nQUIT\n", server_config);
        run.leave_reply = left.count(task.name()) != 0
                              ? left.at(task.name())
                              : std::string("<no response>");
        const auto again = serve_script(
            service, admit_request(task) + "QUIT\n", server_config);
        run.readmit_reply = again.count(task.name()) != 0
                                ? again.at(task.name())
                                : std::string("<no response>");
        break;
      }
    }
    run.final_size = service.snapshot()->set.size();
    runs.push_back(std::move(run));
  }
  hedra::fault::reset();

  // Phase 2: the offline referee replays the same admissions and leave
  // with the unlimited exact-rational test.  The daemon's ADMIT set must
  // match the referee's exactly (sans faults), and every ADMITTED line
  // must carry the referee's cores and response; PROVISIONAL/REJECT/ERROR
  // answers must correspond to tasks the daemon did NOT apply.
  for (int si = 0; si < count; ++si) {
    const hedra::taskset::TaskSet& set = sets[static_cast<std::size_t>(si)];
    const SmokeRun& run = runs[static_cast<std::size_t>(si)];
    hedra::taskset::TaskSet admitted(set.platform());
    std::size_t acknowledged = 0;

    const auto referee = [&](const hedra::model::DagTask& task,
                             const std::string& line) {
      const bool daemon_admitted = is_admitted(line);
      const auto offline =
          hedra::taskset::contention_rta(admitted.with_appended(task));
      ++checked;
      if (daemon_admitted && !offline.schedulable) {
        ++unsound;
        std::cerr << "UNSOUND ADMIT: set " << si << " task " << task.name()
                  << " ('" << line << "')\n";
      } else if (daemon_admitted) {
        // An acknowledged bound must be exactly the offline one.
        std::ostringstream expect;
        expect << "ADMITTED " << task.name() << " cores="
               << offline.tasks.back().cores
               << " response=" << offline.tasks.back().response << " ";
        if (line.rfind(expect.str(), 0) != 0) {
          ++unsound;
          std::cerr << "WRONG BOUND: set " << si << " task " << task.name()
                    << ": daemon said '" << line << "', offline says '"
                    << expect.str() << "...'\n";
        }
      }
      if (daemon_admitted != offline.schedulable) {
        ++mismatches;
        if (!lenient) {
          std::cerr << "divergence: set " << si << " task " << task.name()
                    << ": daemon said '" << line << "', offline says "
                    << (offline.schedulable ? "SCHEDULABLE"
                                            : "NOT SCHEDULABLE")
                    << "\n";
        }
      }
      if (daemon_admitted) {
        admitted.add(task);
        ++acknowledged;
      }
    };

    for (const auto& task : set) {
      const auto it = run.admits.find(task.name());
      referee(task, it == run.admits.end() ? std::string("<no response>")
                                           : it->second);
    }
    if (!run.first_admitted.empty()) {
      std::size_t index = 0;
      while (admitted[index].name() != run.first_admitted) ++index;
      const hedra::model::DagTask task = admitted[index];
      // A LEAVE answers OK exactly when it was applied.
      const bool left =
          run.leave_reply.rfind("OK " + task.name() + " ", 0) == 0;
      if (left) {
        admitted = admitted.without(index);
        --acknowledged;
        referee(task, run.readmit_reply);
      } else {
        ++mismatches;
        if (!lenient) {
          std::cerr << "divergence: set " << si << " LEAVE " << task.name()
                    << ": daemon said '" << run.leave_reply << "'\n";
        }
        // Still admitted: the re-ADMIT must be refused as a duplicate.
        if (is_admitted(run.readmit_reply)) {
          ++unsound;
          std::cerr << "UNSOUND ADMIT: set " << si << " duplicate "
                    << task.name() << "\n";
        }
      }
    }

    // The daemon's applied state must equal its acknowledged admissions.
    // With faults armed the ACK set is recomputed from the daemon's own
    // replies, so this still holds: ADMITTED implies applied, exactly.
    if (run.final_size != acknowledged) {
      ++unsound;
      std::cerr << "state divergence: set " << si << " final state has "
                << run.final_size << " tasks, acknowledged " << acknowledged
                << "\n";
    }
  }
  std::cout << "smoke: " << checked << " decisions cross-checked, " << unsound
            << " unsound, " << mismatches << " mismatch(es)"
            << (lenient ? " [lenient: only unsound is fatal]" : "")
            << "\n";
  return lenient ? unsound : unsound + mismatches;
}

/// Writes `text` to `path` or throws — telemetry dumps are an explicit
/// request, so a silent write failure would be a lie to the scraper.
void write_file_or_throw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw hedra::Error("cannot write '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // The line protocol runs over iostreams only, so they need no stdio
  // sync.  std::cin is untied as well: a tied std::cin flushes std::cout
  // before each read on the reader thread, outside the lock that orders
  // the worker's replies.  Every reply is flushed explicitly anyway.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  hedra::ArgParser parser("admissiond",
                          "admission-control daemon over stdin/stdout");
  const auto* platform =
      parser.add_string("platform", "4:acc", "platform spec (model::Platform)");
  const auto* journal =
      parser.add_string("journal", "", "journal file (empty = no persistence)");
  const auto* deadline_ms = parser.add_real(
      "deadline-ms", 0.0, "per-request analysis deadline (0 = unlimited)");
  const auto* queue =
      parser.add_int("queue", 64, "bounded request queue capacity");
  const auto* faults = parser.add_string(
      "faults", "", "fault-injection spec (see util/fault.h); also reads "
                    "HEDRA_FAULTS when empty");
  const auto* fault_seed =
      parser.add_int("fault-seed", 0, "fault-injection RNG seed");
  const auto* smoke = parser.add_flag(
      "smoke", "self-check: pipe generated sets through the daemon and "
               "cross-check every decision offline");
  const auto* smoke_sets =
      parser.add_int("smoke-sets", 20, "task sets in --smoke mode");
  const auto* smoke_tasks =
      parser.add_int("smoke-tasks", 4, "tasks per set in --smoke mode");
  const auto* seed = parser.add_int("seed", 44, "generator seed (--smoke)");
  const auto* trace_out = parser.add_string(
      "trace-out", "", "write a chrome://tracing JSON of per-request spans "
                       "here on exit (enables telemetry)");
  const auto* metrics_out = parser.add_string(
      "metrics-out", "", "write a hedra-metrics-v1 JSON dump here on exit "
                         "(enables telemetry)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    if (!faults->empty()) {
      hedra::fault::configure(*faults,
                              static_cast<std::uint64_t>(*fault_seed));
    } else {
      (void)hedra::fault::install_from_env();
    }

    ServerConfig server_config;
    server_config.queue_capacity = static_cast<std::size_t>(*queue);
    server_config.request_deadline_sec = *deadline_ms / 1000.0;

    // Either output flag arms the whole telemetry layer: the metrics
    // registry records, and every request carries a span tree.
    const bool telemetry = !trace_out->empty() || !metrics_out->empty();
    hedra::obs::Tracer tracer;
    if (telemetry) {
      hedra::obs::set_enabled(true);
      server_config.tracer = &tracer;
    }
    const auto dump_telemetry = [&] {
      if (!trace_out->empty()) {
        write_file_or_throw(*trace_out, tracer.chrome_trace_json());
      }
      if (!metrics_out->empty()) {
        write_file_or_throw(*metrics_out, hedra::obs::metrics_json());
      }
    };

    if (*smoke) {
      const int divergences =
          run_smoke(static_cast<int>(*smoke_sets),
                    static_cast<int>(*smoke_tasks),
                    static_cast<std::uint64_t>(*seed), server_config);
      dump_telemetry();
      return divergences == 0 ? 0 : 1;
    }

    AdmissionConfig config;
    config.platform = hedra::model::Platform::parse(*platform);
    config.journal_path = *journal;
    AdmissionService service(config);
    const ServerStats stats =
        hedra::serve::run_server(std::cin, std::cout, service, server_config);
    std::cerr << "admissiond: " << stats.requests << " requests ("
              << stats.admitted << " admitted, " << stats.rejected
              << " rejected, " << stats.provisional << " provisional, "
              << stats.errors << " errors, " << stats.shed << " shed)\n";
    dump_telemetry();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
