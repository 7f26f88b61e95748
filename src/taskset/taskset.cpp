#include "taskset/taskset.h"

#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "graph/dag_io.h"
#include "util/strings.h"

namespace hedra::taskset {

namespace {

/// vol_d(G) without forcing arena-backed tasks to materialise a Dag.
graph::Time task_volume_on(const DagTask& task, graph::DeviceId device) {
  if (!task.has_flat_view()) return task.dag().volume_on(device);
  const graph::FlatView view = task.flat_view();
  graph::Time volume = 0;
  for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
    if (view.device(v) == device) volume += view.wcet(v);
  }
  return volume;
}

void check_name(const DagTask& task) {
  HEDRA_REQUIRE(!task.name().empty(), "task names must be non-empty");
  HEDRA_REQUIRE(task.name().find_first_of(" \t\r\n") == std::string::npos,
                "task name '" + task.name() + "' contains whitespace");
}

void check_placement(const Platform& platform, const DagTask& task) {
  // Arena-backed fast path: the view's max device decides support without
  // materialising.  On violation fall through to the Dag-based check so
  // the message (which names the offending node) stays identical.
  const auto num_devices =
      static_cast<graph::DeviceId>(platform.num_devices());
  if (task.has_flat_view() && task.flat_view().max_device() <= num_devices) {
    return;
  }
  const auto issues = model::check_supports(platform, task.dag());
  HEDRA_REQUIRE(issues.empty(), "task '" + task.name() +
                                    "' does not fit the platform: " +
                                    issues.front());
}

}  // namespace

TaskSet TaskSet::with_appended(const DagTask& task) const {
  TaskSet out(platform_);
  out.tasks_.reserve(tasks_.size() + 1);
  out.tasks_.insert(out.tasks_.end(), tasks_.begin(), tasks_.end());
  out.tasks_.push_back(task);
  return out;
}

TaskSet TaskSet::without(std::size_t i) const {
  HEDRA_REQUIRE(i < tasks_.size(), "task index out of range");
  const auto at = tasks_.begin() + static_cast<std::ptrdiff_t>(i);
  TaskSet out(platform_);
  out.tasks_.reserve(tasks_.size() - 1);
  out.tasks_.insert(out.tasks_.end(), tasks_.begin(), at);
  out.tasks_.insert(out.tasks_.end(), at + 1, tasks_.end());
  return out;
}

void TaskSet::validate_task(const DagTask& task) const {
  check_name(task);
  check_placement(platform_, task);
}

void TaskSet::validate() const {
  platform_.validate();
  // Names of tasks 0..i-1.  Task i's duplicate check sits between its
  // name-format and placement checks, so the violation reported is the
  // first one in index order.
  // hedra-lint: allow(unordered-container, membership only, never iterated)
  std::unordered_set<std::string_view> seen;
  seen.reserve(tasks_.size());
  for (const DagTask& task : tasks_) {
    check_name(task);
    HEDRA_REQUIRE(seen.insert(task.name()).second,
                  "duplicate task name '" + task.name() + "'");
    check_placement(platform_, task);
  }
}

Frac TaskSet::task_device_utilization(std::size_t i,
                                      graph::DeviceId device) const {
  HEDRA_REQUIRE(i < tasks_.size(), "task index out of range");
  return Frac(task_volume_on(tasks_[i], device), tasks_[i].period());
}

// hedra-lint: allow(float-in-bound, reporting aggregate, bounds stay exact)
double TaskSet::device_utilization(graph::DeviceId device) const {
  double total = 0.0;  // hedra-lint: allow(float-in-bound, reporting aggregate)
  for (const DagTask& task : tasks_) {
    // hedra-lint: allow(float-in-bound, reporting aggregate)
    total += static_cast<double>(task_volume_on(task, device)) /
             // hedra-lint: allow(float-in-bound, reporting aggregate)
             static_cast<double>(task.period());
  }
  return total;
}

// hedra-lint: allow(float-in-bound, reporting aggregate, bounds stay exact)
double TaskSet::total_utilization() const {
  double total = 0.0;  // hedra-lint: allow(float-in-bound, reporting aggregate)
  for (const DagTask& task : tasks_) total += task.utilization().to_double();
  return total;
}

std::string TaskSet::to_text() const {
  validate();
  std::ostringstream os;
  os << "platform " << platform_.spec() << "\n";
  for (const DagTask& task : tasks_) {
    os << "task " << task.name() << " period " << task.period()
       << " deadline " << task.deadline() << "\n"
       << graph::write_dag_text(task.dag()) << "endtask\n";
  }
  return os.str();
}

TaskSet TaskSet::from_text(const std::string& text) {
  const auto lines = split(text, '\n');
  auto fail = [&](std::size_t line, const std::string& reason) -> void {
    throw Error("taskset line " + std::to_string(line + 1) + ": " + reason);
  };

  TaskSet set;
  bool have_platform = false;
  // hedra-lint: allow(unordered-container, membership only, never iterated)
  std::unordered_set<std::string> names;  ///< duplicate check, O(1) each
  std::size_t i = 0;
  while (i < lines.size()) {
    const std::string_view line = trim(lines[i]);
    if (line.empty() || line[0] == '#') {
      ++i;
      continue;
    }
    // Directives are matched by their EXACT first token, so a misspelling
    // like "tasks" or "platformX" is an unknown directive, not a silently
    // accepted near-miss.
    const std::string_view directive = line.substr(0, line.find_first_of(" \t"));
    if (directive == "platform") {
      if (have_platform) fail(i, "duplicate platform directive");
      const std::string spec(trim(line.substr(directive.size())));
      set.platform_ = Platform::parse(spec);
      have_platform = true;
      ++i;
      continue;
    }
    if (directive == "task") {
      if (!have_platform) fail(i, "the platform directive must come first");
      if (set.tasks_.size() >= kMaxParsedTasks) {
        fail(i, "task count exceeds the parser cap of " +
                    std::to_string(kMaxParsedTasks));
      }
      // "task <name> period <T> deadline <D>"
      std::istringstream header{std::string(line)};
      std::string keyword, name, period_kw, deadline_kw, trailing;
      graph::Time period = 0;
      graph::Time deadline = 0;
      header >> keyword >> name >> period_kw >> period >> deadline_kw >>
          deadline;
      // `>>` stops at the first non-digit, so "deadline 40O" would silently
      // read 40; any leftover token is a malformed header.
      if (header.fail() || period_kw != "period" ||
          deadline_kw != "deadline" || (header >> trailing)) {
        fail(i, "expected 'task <name> period <T> deadline <D>', got '" +
                    std::string(line) + "'");
      }
      const std::size_t header_line = i;
      ++i;
      std::string dag_text;
      bool closed = false;
      while (i < lines.size()) {
        const std::string_view body = trim(lines[i]);
        if (body == "endtask") {
          closed = true;
          ++i;
          break;
        }
        dag_text += lines[i];
        dag_text += '\n';
        ++i;
      }
      if (!closed) fail(header_line, "task '" + name + "' has no endtask");
      // validate() would catch the duplicate too, but only after parsing
      // everything and without a line number; failing here names the line.
      if (!names.insert(name).second) {
        fail(header_line, "duplicate task name '" + name + "'");
      }
      try {
        set.add(DagTask(graph::read_dag_text(dag_text), period, deadline,
                        name));
      } catch (const Error& e) {
        fail(header_line, "task '" + name + "': " + e.message());
      }
      continue;
    }
    fail(i, "unknown directive '" + std::string(line) + "'");
  }
  HEDRA_REQUIRE(have_platform, "taskset text has no platform directive");
  set.validate();
  return set;
}

void save_taskset_file(const TaskSet& set, const std::string& path) {
  std::ofstream out(path);
  HEDRA_REQUIRE(out.good(), "cannot open file for writing: " + path);
  out << set.to_text();
  HEDRA_REQUIRE(out.good(), "failed writing taskset file: " + path);
}

TaskSet load_taskset_file(const std::string& path) {
  std::ifstream in(path);
  HEDRA_REQUIRE(in.good(), "cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TaskSet::from_text(buffer.str());
}

}  // namespace hedra::taskset
