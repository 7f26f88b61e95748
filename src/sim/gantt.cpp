#include "sim/gantt.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace hedra::sim {

std::string render_gantt(const ScheduleTrace& trace, const Dag& dag,
                         const GanttOptions& options) {
  HEDRA_REQUIRE(options.max_width >= 10, "gantt width too small");
  const Time span = trace.makespan();
  std::ostringstream os;
  if (span == 0) {
    os << "(empty schedule)\n";
    return os.str();
  }
  // One character covers `scale` ticks.
  const Time scale = std::max<Time>(1, (span + options.max_width - 1) /
                                           options.max_width);
  const auto cell_of = [&](Time t) {
    return static_cast<std::size_t>(t / scale);
  };
  const std::size_t cells = cell_of(span - 1) + 1;

  const auto render_unit = [&](int unit, const std::string& name) {
    std::string row(cells, '.');
    for (const auto& iv : trace.intervals()) {
      if (iv.unit != unit || iv.finish == iv.start) continue;
      const std::size_t from = cell_of(iv.start);
      const std::size_t to = std::max(from + 1, cell_of(iv.finish - 1) + 1);
      for (std::size_t c = from; c < to; ++c) row[c] = '=';
      const std::string& label = dag.label(iv.node);
      for (std::size_t i = 0; i < label.size() && from + i < to; ++i) {
        row[from + i] = label[i];
      }
    }
    os << (name.size() < 4 ? std::string(4 - name.size(), ' ') : "") << name
       << " |" << row << "|\n";
  };

  for (int core = 0; core < trace.cores(); ++core) {
    render_unit(core, std::string("C").append(std::to_string(core)));
  }
  // One row per accelerator unit — the trace knows each device's unit
  // count, so the chart can never drop a multi-unit interval.  A
  // device-free DAG still shows the paper's single (idle) accelerator row.
  const int num_devices = std::max<int>(1, dag.max_device());
  for (int d = 1; d <= num_devices; ++d) {
    const auto device = static_cast<graph::DeviceId>(d);
    const std::string base = d == 1 ? "ACC" : "ACC" + std::to_string(d);
    for (int u = 0; u < trace.units_of(device); ++u) {
      render_unit(accelerator_unit(device, u),
                  u == 0 ? base : base + "." + std::to_string(u));
    }
  }
  os << "     t=0 .. " << span << "  (1 char = " << scale << " tick"
     << (scale == 1 ? "" : "s") << ")\n";

  if (options.show_instants) {
    std::vector<const Interval*> instants;
    for (const auto& iv : trace.intervals()) {
      if (iv.unit == kInstantUnit) instants.push_back(&iv);
    }
    std::sort(instants.begin(), instants.end(),
              [](const Interval* a, const Interval* b) {
                return a->start != b->start ? a->start < b->start
                                            : a->node < b->node;
              });
    if (!instants.empty()) {
      os << "     instant:";
      for (const auto* iv : instants) {
        os << " " << dag.label(iv->node) << "@" << iv->start;
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace hedra::sim
