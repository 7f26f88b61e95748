#include "serve/server.h"

#include <atomic>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "serve/bounded_queue.h"
#include "serve/protocol.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/thread_annotations.h"

namespace hedra::serve {

namespace {

const char* verb_name(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAdmit:
      return "ADMIT";
    case Request::Kind::kLeave:
      return "LEAVE";
    case Request::Kind::kStatus:
      return "STATUS";
    case Request::Kind::kMetrics:
      return "METRICS";
    case Request::Kind::kQuit:
      return "QUIT";
    case Request::Kind::kInvalid:
      return "INVALID";
  }
  return "INVALID";
}

/// A request as the worker receives it.  The reader parses an ADMIT body
/// before the hand-off, so the worker gets the task, or the text of the
/// error that parsing it raised.
struct Item {
  Request request;
  std::optional<model::DagTask> task;  ///< kAdmit whose body parsed
  std::string parse_error;             ///< kAdmit whose body did not
};

/// Builds the task of an ADMIT request from its body.  Parse and
/// validation failures are kept as the ERROR detail the worker answers
/// with; the body text is released either way.
void parse_body(Item& item) {
  Request& request = item.request;
  try {
    item.task.emplace(graph::read_dag_text(request.dag_text), request.period,
                      request.deadline, request.name);
  } catch (const Error& e) {
    item.parse_error = e.message();
  } catch (const std::exception& e) {
    item.parse_error = std::string("internal error: ") + e.what();
  }
  std::string().swap(request.dag_text);
}

/// Executes one parsed request against the service.  Never throws: every
/// failure — parse residue, analysis faults, journal errors — becomes an
/// ERROR reply, because a service survives bad requests and bad luck; only
/// the transport ending stops it.
AdmissionReply execute(AdmissionService& service, const Item& item,
                       const ServerConfig& config,
                       obs::RequestTrace* trace) {
  const Request& request = item.request;
  AdmissionReply reply;
  try {
    switch (request.kind) {
      case Request::Kind::kInvalid:
        reply.decision = Decision::kError;
        reply.detail = request.error;
        return reply;
      case Request::Kind::kStatus:
      case Request::Kind::kMetrics:  // handled by the worker loop
        reply.decision = Decision::kOk;
        reply.detail = service.status_line();
        return reply;
      case Request::Kind::kLeave:
        return service.leave(request.name, trace);
      case Request::Kind::kAdmit: {
        if (!item.task.has_value()) {
          reply.decision = Decision::kError;
          reply.task = request.name;
          reply.detail = item.parse_error;
          return reply;
        }
        const util::Deadline deadline =
            config.request_deadline_sec > 0.0
                ? util::Deadline::after_seconds(config.request_deadline_sec)
                : util::Deadline::never();
        return service.admit(*item.task, deadline, trace);
      }
      case Request::Kind::kQuit:
        reply.decision = Decision::kOk;
        reply.detail = "bye";
        return reply;
    }
  } catch (const Error& e) {
    reply.decision = Decision::kError;
    reply.task = request.name;
    reply.detail = e.message();
    return reply;
  } catch (const std::exception& e) {
    reply.decision = Decision::kError;
    reply.task = request.name;
    reply.detail = std::string("internal error: ") + e.what();
    return reply;
  }
  reply.decision = Decision::kError;
  reply.detail = "unhandled request kind";
  return reply;
}

/// Trace ids are process-global, not per-run_server: one Tracer often
/// outlives several server loops (the smoke harness runs one per task
/// set), and chrome://tracing keys rows on the id — a restart must not
/// fold two requests onto one row.
std::atomic<std::uint64_t> g_request_seq{0};

/// The reply stream, shared by the reader thread (SHED lines) and the
/// worker (replies).  Interleaved writes would corrupt the line protocol,
/// so the stream itself is the guarded datum.
struct SharedOut {
  explicit SharedOut(std::ostream& os) : out(os) {}
  util::Mutex mutex;
  std::ostream& out HEDRA_GUARDED_BY(mutex);
};

}  // namespace

ServerStats run_server(std::istream& in, std::ostream& out,
                       AdmissionService& service, const ServerConfig& config) {
  ServerStats stats;
  BoundedQueue<Item> queue(config.queue_capacity);
  SharedOut shared_out(out);
  std::atomic<std::uint64_t> shed_queue_full{0};
  std::atomic<std::uint64_t> shed_fault{0};

  // Reader: parse + enqueue; shed when the worker is saturated.  Parsing
  // (including an injected serve.request.parse fault) must not kill the
  // reader, so failures become kInvalid requests answered in order.  An
  // ADMIT body is parsed here too, overlapping the worker's analysis of
  // earlier requests.
  std::thread reader([&] {
    for (;;) {
      // The wait for the client's next request belongs to the client, not
      // to the request: the spans start once its first byte is readable,
      // and the idle time is a server metric outside the request tree.
      std::int64_t parse_start = 0;
      if (config.tracer != nullptr) {
        const std::int64_t idle_start = util::monotonic_now_ns();
        (void)in.peek();  // blocks until a byte (or EOF) arrives
        parse_start = util::monotonic_now_ns();
        HEDRA_METRIC_OBSERVE("serve.reader.idle_ns", parse_start - idle_start);
      }
      std::optional<Request> request;
      try {
        request = read_request(in);
      } catch (const std::exception& e) {
        Request invalid;
        invalid.kind = Request::Kind::kInvalid;
        const auto* error = dynamic_cast<const Error*>(&e);
        invalid.error = error != nullptr ? error->message() : e.what();
        request = std::move(invalid);
      }
      if (!request.has_value()) break;  // EOF
      Item item{std::move(*request), std::nullopt, {}};
      if (item.request.kind == Request::Kind::kAdmit) parse_body(item);
      if (config.tracer != nullptr) {
        // Tracing is best-effort: an injected allocation fault here drops
        // the trace, never the request.
        try {
          HEDRA_FAULT("serve.trace.alloc");
          auto trace = std::make_unique<obs::RequestTrace>(
              g_request_seq.fetch_add(1, std::memory_order_relaxed) + 1);
          trace->begin_at("request", parse_start);
          trace->end(trace->begin_at("parse", parse_start));
          trace->note("verb", verb_name(item.request.kind));
          item.request.queue_wait_span = trace->begin("queue-wait");
          item.request.trace = std::move(trace);
        } catch (const std::exception&) {
          // The partly built trace dies with its local owner.
        }
      }
      const bool quit = item.request.kind == Request::Kind::kQuit;
      const std::string name = item.request.name;
      bool pushed = false;
      bool push_faulted = false;
      try {
        pushed = queue.try_push(std::move(item));
      } catch (const std::exception&) {
        // A fault at the queue boundary (serve.queue.push) loses the
        // hand-off; the request was never executed, so SHED is the honest
        // answer — and the reader thread must survive.  Distinguished from
        // a genuinely full queue in the stats and STATUS.
        pushed = false;
        push_faulted = true;
      }
      if (!pushed) {
        if (push_faulted) {
          shed_fault.fetch_add(1, std::memory_order_relaxed);
          HEDRA_METRIC("serve.shed.fault");
        } else {
          shed_queue_full.fetch_add(1, std::memory_order_relaxed);
          HEDRA_METRIC("serve.shed.queue_full");
        }
        util::MutexLock lock(shared_out.mutex);
        shared_out.out << "SHED" << (name.empty() ? "" : " " + name) << "\n"
                       << std::flush;
      }
      if (quit) break;
    }
    queue.close();
  });

  // Worker: drain, execute, respond.
  for (;;) {
    std::optional<Item> item = queue.pop();
    if (!item.has_value()) break;  // closed and drained
    Request& request = item->request;
    std::unique_ptr<obs::RequestTrace> trace = std::move(request.trace);
    if (trace != nullptr && request.queue_wait_span >= 0) {
      trace->end(request.queue_wait_span);
    }
    HEDRA_METRIC("serve.requests");
    HEDRA_METRIC_SET("serve.queue.depth",
                     static_cast<std::int64_t>(queue.size()));

    if (request.kind == Request::Kind::kMetrics) {
      // The scrape verb: the whole registry in Prometheus text format,
      // terminated by a literal `# EOF` line (see protocol.h).
      ++stats.requests;
      const std::string text = obs::prometheus_text();
      {
        util::MutexLock lock(shared_out.mutex);
        shared_out.out << text << "# EOF\n" << std::flush;
      }
      if (trace != nullptr) config.tracer->submit(std::move(trace));
      continue;
    }

    AdmissionReply reply = execute(service, *item, config, trace.get());
    if (request.kind == Request::Kind::kStatus &&
        reply.decision == Decision::kOk) {
      // Server-side half of the enriched STATUS: the queue and shed
      // tallies live in this loop, not in the service.
      std::ostringstream extra;
      extra << " queue=" << queue.size() << " shed_full="
            << shed_queue_full.load(std::memory_order_relaxed)
            << " shed_fault=" << shed_fault.load(std::memory_order_relaxed);
      reply.detail += extra.str();
    }
    ++stats.requests;
    switch (reply.decision) {
      case Decision::kAdmitted:
        ++stats.admitted;
        break;
      case Decision::kRejected:
        ++stats.rejected;
        break;
      case Decision::kProvisional:
        ++stats.provisional;
        break;
      case Decision::kError:
        ++stats.errors;
        HEDRA_METRIC("serve.errors");
        break;
      case Decision::kOk:
        break;
    }
    {
      util::MutexLock lock(shared_out.mutex);
      shared_out.out << format_reply(reply) << "\n" << std::flush;
    }
    if (trace != nullptr) {
      trace->note("decision", to_string(reply.decision));
      if (!request.name.empty()) trace->note("task", request.name);
      trace->end_all();
      if (!trace->spans().empty()) {
        const obs::Span& root = trace->spans().front();
        HEDRA_METRIC_OBSERVE("serve.request.latency_ns",
                             root.end_ns - root.start_ns);
      }
      config.tracer->submit(std::move(trace));
    }
    if (request.kind == Request::Kind::kQuit) break;
  }
  queue.close();  // in case QUIT ended the worker before the reader
  reader.join();
  stats.shed_queue_full = shed_queue_full.load(std::memory_order_relaxed);
  stats.shed_fault = shed_fault.load(std::memory_order_relaxed);
  stats.shed = stats.shed_queue_full + stats.shed_fault;
  return stats;
}

}  // namespace hedra::serve
