#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <vector>

#include "graph/flat_dag.h"
#include "sim/engine.h"

namespace hedra::sim {

const std::vector<Policy>& all_policies() noexcept {
  static const std::vector<Policy> kAll{
      Policy::kBreadthFirst, Policy::kDepthFirst, Policy::kCriticalPathFirst,
      Policy::kIndexOrder, Policy::kRandom};
  return kAll;
}

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kBreadthFirst:
      return "breadth-first";
    case Policy::kDepthFirst:
      return "depth-first";
    case Policy::kCriticalPathFirst:
      return "critical-path-first";
    case Policy::kIndexOrder:
      return "index-order";
    case Policy::kRandom:
      return "random";
  }
  return "?";
}

namespace {

std::atomic<std::uint64_t> g_validation_runs{0};

/// Full trace — the validation/golden/tooling path.
struct TraceRecorder {
  ScheduleTrace trace;

  void release(std::uint32_t, std::uint32_t, Time) noexcept {}
  void start(const NodeInstance& item, int unit, Time start, Time finish) {
    trace.add(Interval{item.node, unit, start, finish});
  }
  void job_done(std::uint32_t, std::uint32_t, Time) noexcept {}
};

/// Makespan only — the Monte-Carlo hot path: no per-interval storage; the
/// one job's finish is the makespan.
struct MakespanRecorder {
  Time makespan = 0;

  void release(std::uint32_t, std::uint32_t, Time) noexcept {}
  void start(const NodeInstance&, int, Time, Time) noexcept {}
  void job_done(std::uint32_t, std::uint32_t, Time t) noexcept {
    makespan = t;
  }
};

/// `view` as the engine's one task: `config.cores` cores, one job at t = 0.
template <class Recorder>
void run_single(const graph::FlatView& view, const SimConfig& config,
                const std::vector<Time>* actual, Recorder& recorder) {
  static constexpr Time kReleaseAtZero[] = {0};
  // Devices the configuration leaves unsized get one unit each.
  std::vector<int> units = config.device_units;
  if (units.size() < view.max_device()) units.resize(view.max_device(), 1);
  EngineTask task{view, config.cores, kReleaseAtZero, {}};
  if (actual != nullptr) task.actual = *actual;
  const EngineConfig engine{config.policy, config.seed, units, {}};
  (void)run_engine(std::span<const EngineTask>(&task, 1), engine, recorder);
}

/// A trace-recording run over `trace.view()`, validated when the config
/// says so.
ScheduleTrace run_traced(ScheduleTrace trace, const SimConfig& config,
                         const std::vector<Time>* actual) {
  TraceRecorder recorder{std::move(trace)};
  const graph::FlatView view = recorder.trace.view();
  recorder.trace.reserve(view.num_nodes());
  run_single(view, config, actual, recorder);
  if (config.validate) {
    g_validation_runs.fetch_add(1, std::memory_order_relaxed);
    const auto issues = actual != nullptr
                            ? recorder.trace.validate_with_durations(*actual)
                            : recorder.trace.validate();
    HEDRA_ASSERT(issues.empty());
  }
  return std::move(recorder.trace);
}

}  // namespace

std::uint64_t validation_runs() noexcept {
  return g_validation_runs.load(std::memory_order_relaxed);
}

ScheduleTrace simulate(const graph::FlatView& view, const SimConfig& config) {
  return run_traced(ScheduleTrace(view, config.cores, config.device_units),
                    config, nullptr);
}

ScheduleTrace simulate(const Dag& dag, const SimConfig& config) {
  // The trace owns its snapshot; FlatDag throws on cyclic input.
  return run_traced(ScheduleTrace(&dag, config.cores, config.device_units),
                    config, nullptr);
}

Time simulated_makespan(const graph::FlatView& view, const SimConfig& config) {
  if (config.validate) return simulate(view, config).makespan();
  MakespanRecorder recorder;
  run_single(view, config, nullptr, recorder);
  return recorder.makespan;
}

Time simulated_makespan(const Dag& dag, const SimConfig& config) {
  return simulated_makespan(graph::FlatDag(dag).view(), config);
}

ScheduleTrace simulate_with_times(const graph::FlatView& view,
                                  const SimConfig& config,
                                  const std::vector<Time>& actual_times) {
  return run_traced(ScheduleTrace(view, config.cores, config.device_units),
                    config, &actual_times);
}

ScheduleTrace simulate_with_times(const Dag& dag, const SimConfig& config,
                                  const std::vector<Time>& actual_times) {
  return run_traced(ScheduleTrace(&dag, config.cores, config.device_units),
                    config, &actual_times);
}

std::vector<Time> random_actual_times(const Dag& dag, double scale_min,
                                      Rng& rng) {
  HEDRA_REQUIRE(scale_min >= 0.0 && scale_min <= 1.0,
                "scale_min must lie in [0, 1]");
  std::vector<Time> actual(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    const Time wcet = dag.wcet(v);
    if (wcet == 0) continue;
    const Time lo = static_cast<Time>(
        std::ceil(scale_min * static_cast<double>(wcet)));
    actual[v] = rng.uniform_int(std::max<Time>(0, lo), wcet);
  }
  return actual;
}

}  // namespace hedra::sim
