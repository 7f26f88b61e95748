#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hedra::serve {
namespace {

AdmissionConfig test_config() {
  AdmissionConfig config;
  config.platform = model::Platform::parse("4:acc");
  return config;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  for (auto& line : split(text, '\n')) {
    if (!trim(line).empty()) lines.push_back(std::move(line));
  }
  return lines;
}

constexpr const char* kEasyBody = "node v1 5\nendtask\n";

TEST(ServerTest, FullSessionInOrder) {
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "STATUS\n"
      "LEAVE tau1\n"
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[0], "ADMITTED tau1"));
  EXPECT_NE(lines[1].find("tasks=1"), std::string::npos);
  EXPECT_TRUE(starts_with(lines[2], "OK tau1"));
  EXPECT_NE(lines[3].find("tasks=0"), std::string::npos);
  EXPECT_EQ(lines[4], "OK bye");

  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServerTest, EofEndsTheLoopWithoutQuit) {
  std::istringstream in("STATUS\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.requests, 1u);
}

TEST(ServerTest, BadRequestsAnswerErrorAndTheLoopSurvives) {
  std::istringstream in(
      "FROBNICATE\n"
      "ADMIT broken period x deadline 1\nendtask\n"
      "LEAVE ghost\n"
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
}

TEST(ServerTest, ErrorRepliesNameTheLineNotTheSourceFile) {
  std::istringstream in(
      "ADMIT twice period 1000 deadline 1000\n"
      "node a 1\nnode a 2\nendtask\n"
      "ADMIT loop period 1000 deadline 1000\n"
      "node a 1\nnode b 1\nedge a b\nedge b a\nendtask\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "ERROR twice precondition violated: line 2: duplicate node label "
            "'a'");
  EXPECT_EQ(lines[1], "ERROR loop line 4: edge 'b' -> 'a' closes a cycle");
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(lines[i].find('/'), std::string::npos) << lines[i];
    EXPECT_EQ(lines[i].find(".cpp:"), std::string::npos) << lines[i];
  }
}

TEST(ServerTest, RejectionsDoNotMutateState) {
  std::istringstream in(
      "ADMIT impossible period 100 deadline 100\n"
      "node a 50\nnode b 50\nnode c 50\nedge a b\nedge b c\nendtask\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

TEST(ServerTest, InjectedQueueFaultShedsTheRequest) {
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.queue.push=@1");
  const ServerStats stats = run_server(in, out, service);
  fault::reset();
  fault::clear_registry();

  EXPECT_EQ(stats.shed, 1u);
  // The injected fault is distinguished from a genuinely full queue.
  EXPECT_EQ(stats.shed_fault, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);  // never executed
  EXPECT_NE(out.str().find("SHED tau1"), std::string::npos);
}

TEST(ServerTest, InjectedParseFaultIsAnErrorResponse) {
  std::istringstream in(
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.request.parse=@1");
  const ServerStats stats = run_server(in, out, service);
  fault::reset();
  fault::clear_registry();

  // The faulted parse became an ERROR response; the loop went on to QUIT.
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_NE(out.str().find("ERROR"), std::string::npos);
  EXPECT_NE(out.str().find("OK bye"), std::string::npos);
}

TEST(ServerTest, StatusCarriesQueueAndShedTallies) {
  std::istringstream in("STATUS\nQUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service);
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].find("queue="), std::string::npos);
  EXPECT_NE(lines[0].find("shed_full=0"), std::string::npos);
  EXPECT_NE(lines[0].find("shed_fault=0"), std::string::npos);
  EXPECT_NE(lines[0].find("journal_bytes="), std::string::npos);
}

TEST(ServerTest, MetricsVerbScrapesPrometheusTextWithEofTerminator) {
  obs::set_enabled(true);
  obs::reset_values();
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "METRICS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  obs::set_enabled(false);

  EXPECT_EQ(stats.requests, 3u);
  const std::string reply = out.str();
  // The scrape block carries the admit counter recorded one line earlier
  // and terminates with the literal sentinel line.
  EXPECT_NE(reply.find("# TYPE hedra_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(reply.find("hedra_serve_admit_admitted 1"), std::string::npos);
  EXPECT_NE(reply.find("\n# EOF\n"), std::string::npos);
  obs::reset_values();
}

TEST(ServerTest, TracedSessionRecordsTheSpanTree) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service, config);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 3u);  // ADMIT, STATUS, QUIT

  // The ADMIT trace: the full phase tree, every span closed and nested
  // inside the root "request" interval, phases sequential (span sums to
  // at most the end-to-end latency — the PR's acceptance criterion).
  const obs::RequestTrace& admit = *traces[0];
  EXPECT_EQ(admit.notes().at("verb"), "ADMIT");
  EXPECT_EQ(admit.notes().at("decision"), "ADMITTED");
  EXPECT_EQ(admit.notes().at("task"), "tau1");
  std::vector<std::string> names;
  for (const obs::Span& span : admit.spans()) names.push_back(span.name);
  const std::vector<std::string> expected{
      "request",        "parse",   "queue-wait", "snapshot-build",
      "rta-fixpoint",   "publish"};
  EXPECT_EQ(names, expected);  // no journal span: no journal configured
  const obs::Span& root = admit.spans()[0];
  std::int64_t child_sum = 0;
  for (std::size_t i = 1; i < admit.spans().size(); ++i) {
    const obs::Span& span = admit.spans()[i];
    EXPECT_GE(span.start_ns, root.start_ns) << span.name;
    EXPECT_LE(span.end_ns, root.end_ns) << span.name;
    EXPECT_LE(span.start_ns, span.end_ns) << span.name;
    child_sum += span.end_ns - span.start_ns;
  }
  EXPECT_LE(child_sum, root.end_ns - root.start_ns);

  EXPECT_EQ(traces[1]->notes().at("verb"), "STATUS");
  EXPECT_EQ(traces[2]->notes().at("verb"), "QUIT");

  // The chrome export carries one row (tid) per request; ids are
  // process-global (a shared Tracer outlives server loops) so only their
  // consecutiveness is pinned, not their absolute values.
  EXPECT_EQ(traces[1]->id(), traces[0]->id() + 1);
  EXPECT_EQ(traces[2]->id(), traces[0]->id() + 2);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"tid\":" + std::to_string(traces[0]->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(traces[2]->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rta-fixpoint\""), std::string::npos);
}

/// An input stream whose first byte arrives only after `delay`, as a
/// client that connects and then thinks before sending its request.
class DelayedBuf : public std::streambuf {
 public:
  DelayedBuf(std::string text, std::chrono::milliseconds delay)
      : text_(std::move(text)), delay_(delay) {}

 protected:
  int_type underflow() override {
    if (!started_) {
      std::this_thread::sleep_for(delay_);
      started_ = true;
      setg(text_.data(), text_.data(), text_.data() + text_.size());
    }
    return gptr() < egptr() ? traits_type::to_int_type(*gptr())
                            : traits_type::eof();
  }

 private:
  std::string text_;
  std::chrono::milliseconds delay_;
  bool started_ = false;
};

TEST(ServerTest, SpansStartWhenTheRequestArrives) {
  // The idle wait before the client's first byte is recorded as the
  // reader's idle metric, not as parse or request time.
  constexpr std::chrono::milliseconds kDelay{50};
  const std::int64_t delay_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kDelay).count();
  obs::set_enabled(true);
  obs::reset_values();
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  DelayedBuf buf("ADMIT tau1 period 1000 deadline 1000\n" +
                     std::string(kEasyBody) + "QUIT\n",
                 kDelay);
  std::istream in(&buf);
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service, config);
  obs::set_enabled(false);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 2u);  // ADMIT, QUIT
  const obs::RequestTrace& admit = *traces[0];
  ASSERT_GE(admit.spans().size(), 2u);
  const obs::Span& request = admit.spans()[0];
  const obs::Span& parse = admit.spans()[1];
  ASSERT_EQ(request.name, "request");
  ASSERT_EQ(parse.name, "parse");
  EXPECT_LT(parse.end_ns - parse.start_ns, delay_ns);
  EXPECT_LT(request.end_ns - request.start_ns, delay_ns);

  const obs::Histogram& idle = obs::histogram("serve.reader.idle_ns");
  EXPECT_GE(idle.count(), 2u);  // before the ADMIT and before the QUIT
  EXPECT_GE(idle.sum_ns(), static_cast<std::uint64_t>(delay_ns));
  obs::reset_values();
}

/// Span names of `trace`, in opening order.
std::vector<std::string> span_names(const obs::RequestTrace& trace) {
  std::vector<std::string> names;
  for (const obs::Span& span : trace.spans()) names.push_back(span.name);
  return names;
}

TEST(ServerTest, TracedLeaveRecordsTheSameSpanTreeAsAdmit) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "ADMIT tau2 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "LEAVE tau1\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service, config);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 4u);  // ADMIT, ADMIT, LEAVE, QUIT
  const obs::RequestTrace& leave = *traces[2];
  EXPECT_EQ(leave.notes().at("verb"), "LEAVE");
  EXPECT_EQ(leave.notes().at("decision"), "OK");
  const std::vector<std::string> expected{
      "request",        "parse",   "queue-wait", "snapshot-build",
      "rta-fixpoint",   "publish"};
  EXPECT_EQ(span_names(leave), expected);
  const obs::Span& root = leave.spans()[0];
  std::int64_t child_sum = 0;
  for (std::size_t i = 1; i < leave.spans().size(); ++i) {
    const obs::Span& span = leave.spans()[i];
    EXPECT_EQ(span.parent, 0) << span.name;
    EXPECT_GE(span.start_ns, root.start_ns) << span.name;
    EXPECT_LE(span.end_ns, root.end_ns) << span.name;
    EXPECT_LE(span.start_ns, span.end_ns) << span.name;
    child_sum += span.end_ns - span.start_ns;
  }
  EXPECT_LE(child_sum, root.end_ns - root.start_ns);
}

TEST(ServerTest, RejectedValidationClosesItsSpanWhereItFails) {
  AdmissionService service(test_config());
  obs::RequestTrace trace(1);
  // Device 2 does not exist on the one-accelerator platform.
  const model::DagTask misplaced(graph::read_dag_text("node v1 5 offload:2\n"),
                                 1000, 1000, "tau1");
  const AdmissionReply reply =
      service.admit(misplaced, util::Deadline::never(), &trace);
  EXPECT_EQ(reply.decision, Decision::kError);
  EXPECT_NE(reply.detail.find("does not fit the platform"), std::string::npos);
  ASSERT_EQ(span_names(trace), std::vector<std::string>{"snapshot-build"});
  // Closed by admit() itself, not left for the server's end_all().
  EXPECT_NE(trace.spans()[0].end_ns, 0);
  EXPECT_EQ(service.snapshot()->version, 0u);
}

TEST(ServerTest, TraceAllocationFaultDropsTheTraceNotTheRequest) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.trace.alloc=@1");
  const ServerStats stats = run_server(in, out, service, config);
  fault::reset();
  fault::clear_registry();

  // The first request (the ADMIT) lost its trace but was served normally.
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
  EXPECT_EQ(tracer.submitted(), 1u);  // only the QUIT trace survived
}

/// Nineteen requests written before any reply is read: valid ADMITs, a
/// malformed body, a cyclic body, a duplicate name, a dangling edge, a
/// deadline past the period, a malformed header, LEAVEs and STATUS reads.
constexpr const char* kPipelinedSession =
    "ADMIT a1 period 1000 deadline 1000\nnode v1 5\nendtask\n"
    "ADMIT a2 period 500 deadline 400\n"
    "node v1 3\nnode v2 4 offload\nedge v1 v2\nendtask\n"
    "STATUS\n"
    "ADMIT bad1 period 1000 deadline 1000\nnode v1 x\nendtask\n"
    "ADMIT a3 period 800 deadline 800\n"
    "node v1 2\nnode v2 6 offload\nnode v3 2\nedge v1 v2\nedge v2 v3\n"
    "endtask\n"
    "ADMIT loop period 1000 deadline 1000\n"
    "node a 1\nnode b 1\nedge a b\nedge b a\nendtask\n"
    "ADMIT a1 period 1000 deadline 1000\nnode v1 5\nendtask\n"
    "LEAVE a2\n"
    "ADMIT a4 period 300 deadline 300\n"
    "node v1 4\nnode v2 7 offload\nedge v1 v2\nendtask\n"
    "ADMIT bad2 period 1000 deadline 1000\nfrob v1\nendtask\n"
    "ADMIT impossible period 100 deadline 100\n"
    "node a 50\nnode b 50\nnode c 50\nedge a b\nedge b c\nendtask\n"
    "LEAVE ghost\n"
    "ADMIT a5 period 600 deadline 500\n"
    "node v1 1\nnode v2 9 offload\nnode v3 1\nedge v1 v2\nedge v1 v3\n"
    "endtask\n"
    "ADMIT bad3 period 10 deadline 20\nnode v1 1\nendtask\n"
    "ADMIT bad4 period 1000\nnode v1 1\nendtask\n"
    "ADMIT dangling period 1000 deadline 1000\n"
    "node v1 1\nedge v1 v9\nendtask\n"
    "STATUS\n"
    "LEAVE a1\n"
    "QUIT\n";

/// The replies, in request order.  A STATUS line is pinned up to its
/// queue depth, which depends on how far the reader got.
const std::vector<std::string> kPipelinedReplies{
    "ADMITTED a1 cores=1 response=5 proven by exact fixpoint",
    "ADMITTED a2 cores=1 response=7 proven by exact fixpoint",
    "OK tasks=2 cores_used=2 schedulable=1 version=2 platform=4:acc "
    "journal_bytes=0 admitted=2 rejected_exact=0 rejected_seed=0 "
    "provisional=0 admit_errors=0 queue=",
    "ERROR bad1 precondition violated: line 1: malformed integer: 'x'",
    "ADMITTED a3 cores=1 response=14 proven by exact fixpoint",
    "ERROR loop line 4: edge 'b' -> 'a' closes a cycle",
    "ERROR a1 task 'a1' is already admitted",
    "OK a2 task 'a2' left",
    "ADMITTED a4 cores=1 response=23 proven by exact fixpoint",
    "ERROR bad2 line 1: unknown directive 'frob'",
    "REJECTED impossible task 'impossible' misses its deadline (R = 150)",
    "ERROR ghost no admitted task named 'ghost'",
    "ADMITTED a5 cores=1 response=37 proven by exact fixpoint",
    "ERROR bad3 precondition violated: constrained-deadline model requires "
    "D <= T",
    "ERROR expected 'ADMIT <name> period <T> deadline <D>', got 'ADMIT bad4 "
    "period 1000'",
    "ERROR dangling precondition violated: line 2: unknown node 'v9'",
    "OK tasks=4 cores_used=4 schedulable=1 version=6 platform=4:acc "
    "journal_bytes=0 admitted=5 rejected_exact=1 rejected_seed=0 "
    "provisional=0 admit_errors=1 queue=",
    "OK a1 task 'a1' left",
    "OK bye"};

void expect_pipelined_replies(const std::vector<std::string>& lines) {
  ASSERT_EQ(lines.size(), kPipelinedReplies.size());
  for (std::size_t i = 0; i < kPipelinedReplies.size(); ++i) {
    const std::string& want = kPipelinedReplies[i];
    const std::string& got = lines[i];
    if (want.ends_with("queue=")) {
      EXPECT_TRUE(starts_with(got, want)) << got;
    } else {
      EXPECT_EQ(got, want);
    }
  }
}

TEST(ServerTest, PipelinedRequestsAnswerInOrderWithTheSameErrors) {
  std::istringstream in(kPipelinedSession);
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  expect_pipelined_replies(lines_of(out.str()));
  EXPECT_EQ(stats.requests, 19u);
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.errors, 8u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(ServerTest, PipelinedAdmitsAreParsedBeforeTheyQueue) {
  // A 20,000-node chain ahead of the pipelined session: its body parse is
  // long enough to time, and it is inside the parse span, which closes
  // before the request starts waiting for the worker.
  constexpr int kNodes = 20'000;
  std::string body;
  for (int v = 1; v <= kNodes; ++v) {
    body.append("node v").append(std::to_string(v)).append(" 1\n");
  }
  for (int v = 1; v < kNodes; ++v) {
    body.append("edge v").append(std::to_string(v)).append(" v");
    body.append(std::to_string(v + 1)).append("\n");
  }
  std::int64_t parse_ns = std::numeric_limits<std::int64_t>::max();
  for (int round = 0; round < 3; ++round) {
    const std::int64_t start = util::monotonic_now_ns();
    const graph::Dag dag = graph::read_dag_text(body);
    parse_ns = std::min(parse_ns, util::monotonic_now_ns() - start);
    ASSERT_EQ(dag.num_nodes(), static_cast<std::size_t>(kNodes));
  }

  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in("ADMIT big period 100000 deadline 100000\n" + body +
                        "endtask\n" + kPipelinedSession);
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service, config);

  const auto lines = lines_of(out.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(starts_with(lines[0], "ADMITTED big")) << lines[0];
  // The big task holds a core and raises the admitted counts by one.
  EXPECT_EQ(lines.size(), kPipelinedReplies.size() + 1);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), kPipelinedReplies.size() + 1);
  int admits = 0;
  for (const auto& trace : traces) {
    if (trace->notes().at("verb") != "ADMIT") continue;
    ++admits;
    ASSERT_GE(trace->spans().size(), 3u);
    const obs::Span& parse = trace->spans()[1];
    const obs::Span& queue_wait = trace->spans()[2];
    ASSERT_EQ(parse.name, "parse");
    ASSERT_EQ(queue_wait.name, "queue-wait");
    EXPECT_GE(queue_wait.start_ns, parse.end_ns);
  }
  EXPECT_EQ(admits, 13);
  // The big ADMIT's parse span holds its body's parse: at least half of
  // what parsing the same body directly takes.  Reading the lines alone
  // takes a small fraction of that.
  const obs::Span& big_parse = traces[0]->spans()[1];
  EXPECT_GE(big_parse.end_ns - big_parse.start_ns, parse_ns / 2);
}

TEST(ServerTest, PerRequestDeadlineDegradesGracefully) {
  ServerConfig config;
  config.request_deadline_sec = 1e-9;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service, config);
  // A 1ns budget cannot complete a proof: the answer degrades (PROVISIONAL
  // or a seed REJECT), it never falsely admits.
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

}  // namespace
}  // namespace hedra::serve
