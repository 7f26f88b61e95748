#include "sim/trace.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

namespace hedra::sim {

ScheduleTrace::ScheduleTrace(const graph::FlatView& view, int cores,
                             std::vector<int> device_units)
    : view_(view), cores_(cores), device_units_(std::move(device_units)) {
  HEDRA_REQUIRE(cores_ >= 1, "trace requires at least one core");
  for (const int units : device_units_) {
    HEDRA_REQUIRE(units >= 1, "every accelerator device needs >= 1 unit");
  }
}

ScheduleTrace::ScheduleTrace(const Dag* dag, int cores,
                             std::vector<int> device_units)
    : ScheduleTrace(graph::FlatView(), cores, std::move(device_units)) {
  HEDRA_REQUIRE(dag != nullptr, "trace requires a DAG");
  snapshot_ = std::make_shared<const graph::FlatDag>(*dag);
  view_ = snapshot_->view();
}

void ScheduleTrace::add(const Interval& interval) {
  HEDRA_REQUIRE(interval.node < view_.num_nodes(), "interval node id invalid");
  HEDRA_REQUIRE(interval.finish >= interval.start,
                "interval must not end before it starts");
  HEDRA_REQUIRE(
      is_accelerator_unit(interval.unit) || interval.unit == kInstantUnit ||
          (interval.unit >= 0 && interval.unit < cores_),
      "interval unit out of range");
  intervals_.push_back(interval);
}

std::string ScheduleTrace::label(NodeId v) const {
  if (const Dag* source = view_.source()) return source->label(v);
  return graph::default_label(v, view_.device(v), view_.is_sync(v));
}

Time ScheduleTrace::makespan() const noexcept {
  Time latest = 0;
  for (const auto& iv : intervals_) latest = std::max(latest, iv.finish);
  return latest;
}

const Interval& ScheduleTrace::interval_of(NodeId node) const {
  for (const auto& iv : intervals_) {
    if (iv.node == node) return iv;
  }
  throw Error("node " + label(node) + " has no interval in the trace");
}

Time ScheduleTrace::busy_time(int unit) const noexcept {
  Time total = 0;
  for (const auto& iv : intervals_) {
    if (iv.unit == unit) total += iv.finish - iv.start;
  }
  return total;
}

double ScheduleTrace::utilization(int unit) const noexcept {
  const Time span = makespan();
  if (span == 0) return 0.0;
  return static_cast<double>(busy_time(unit)) / static_cast<double>(span);
}

Time ScheduleTrace::host_idle_time() const noexcept {
  Time busy = 0;
  for (int core = 0; core < cores_; ++core) busy += busy_time(core);
  return makespan() * cores_ - busy;
}

std::string ScheduleTrace::to_text() const {
  std::ostringstream os;
  for (const auto& iv : intervals_) {
    os << iv.node << ' ' << iv.unit << ' ' << iv.start << ' ' << iv.finish
       << '\n';
  }
  return os.str();
}

std::vector<std::string> ScheduleTrace::validate() const {
  return check(view_.wcets());
}

std::vector<std::string> ScheduleTrace::validate_with_durations(
    const std::vector<Time>& expected_durations) const {
  return check(expected_durations);
}

std::vector<std::string> ScheduleTrace::check(
    std::span<const Time> expected_durations) const {
  const std::size_t n = view_.num_nodes();
  HEDRA_REQUIRE(expected_durations.size() == n,
                "expected-durations size mismatch");
  std::vector<std::string> issues;
  const auto say = [&](const std::string& text) { issues.push_back(text); };

  // Exactly one interval per node, with the right duration and placement;
  // at[v] is v's interval once that holds.
  std::vector<std::uint32_t> seen(n, 0);
  std::vector<std::uint32_t> at(n);
  for (std::uint32_t i = 0; i < intervals_.size(); ++i) {
    const Interval& iv = intervals_[i];
    ++seen[iv.node];
    at[iv.node] = i;
    const Time duration = iv.finish - iv.start;
    if (duration != expected_durations[iv.node]) {
      say("node " + label(iv.node) + " ran for " + std::to_string(duration) +
          " ticks, expected " + std::to_string(expected_durations[iv.node]));
    }
    const auto kind = view_.kind(iv.node);
    if (kind == graph::NodeKind::kOffload) {
      const graph::DeviceId device = view_.device(iv.node);
      const bool on_device = is_accelerator_unit(iv.unit) &&
                             device_of_unit(iv.unit) == device &&
                             unit_index_of(iv.unit) < units_of(device);
      if (!on_device) {
        say("offload node " + label(iv.node) + " ran off its device (device " +
            std::to_string(device) + " with " +
            std::to_string(units_of(device)) + " unit(s), unit " +
            std::to_string(iv.unit) + ")");
      }
    }
    if (kind == graph::NodeKind::kHost && view_.wcet(iv.node) > 0 &&
        !(iv.unit >= 0 && iv.unit < cores_)) {
      say("host node " + label(iv.node) + " ran off the host cores");
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (seen[v] != 1) {
      say("node " + label(v) + " executed " + std::to_string(seen[v]) +
          " times");
    }
  }
  if (!issues.empty()) return issues;  // placement broken; stop here

  // Precedence.
  for (NodeId v = 0; v < n; ++v) {
    const Time start = intervals_[at[v]].start;
    for (const NodeId p : view_.predecessors(v)) {
      const Time finish = intervals_[at[p]].finish;
      if (finish > start) {
        say("node " + label(v) + " started at " + std::to_string(start) +
            " before predecessor " + label(p) + " finished at " +
            std::to_string(finish));
      }
    }
  }

  // Per-unit capacity.  One counting pass groups the intervals by unit in
  // ascending unit id; a unit's key is its offset from the lowest id, or,
  // when the ids are too sparse for that, its rank among the distinct ids.
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (const auto& iv : intervals_) {
    if (iv.unit == kInstantUnit) continue;
    lo = std::min(lo, iv.unit);
    hi = std::max(hi, iv.unit);
  }
  if (lo > hi) return issues;
  const auto width = static_cast<std::size_t>(static_cast<long long>(hi) - lo);
  std::vector<int> ids;
  if (width > 2 * intervals_.size() + 64) {
    for (const auto& iv : intervals_) {
      if (iv.unit != kInstantUnit) ids.push_back(iv.unit);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  const auto key = [&](int unit) -> std::size_t {
    if (ids.empty()) return static_cast<std::size_t>(unit - lo);
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), unit) - ids.begin());
  };
  const std::size_t keys = ids.empty() ? width + 1 : ids.size();
  std::vector<std::uint32_t> first(keys + 1, 0);
  for (const auto& iv : intervals_) {
    if (iv.unit != kInstantUnit) ++first[key(iv.unit) + 1];
  }
  for (std::size_t k = 0; k < keys; ++k) first[k + 1] += first[k];
  std::vector<std::uint32_t> grouped(first[keys]);
  {
    std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
    for (std::uint32_t i = 0; i < intervals_.size(); ++i) {
      const int unit = intervals_[i].unit;
      if (unit != kInstantUnit) grouped[next[key(unit)]++] = i;
    }
  }
  const auto starts_before = [&](std::uint32_t a, std::uint32_t b) {
    return intervals_[a].start < intervals_[b].start;
  };
  for (std::size_t k = 0; k < keys; ++k) {
    const auto begin = grouped.begin() + first[k];
    const auto end = grouped.begin() + first[k + 1];
    if (!std::is_sorted(begin, end, starts_before)) {
      std::stable_sort(begin, end, starts_before);
    }
    for (auto it = begin; it != end && it + 1 != end; ++it) {
      const Interval& prev = intervals_[*it];
      const Interval& cur = intervals_[*(it + 1)];
      if (cur.start < prev.finish) {
        std::ostringstream os;
        os << "unit " << cur.unit << ": " << label(cur.node) << " ["
           << cur.start << ", " << cur.finish << ") overlaps "
           << label(prev.node) << " [" << prev.start << ", " << prev.finish
           << ")";
        say(os.str());
      }
    }
  }
  return issues;
}

}  // namespace hedra::sim
