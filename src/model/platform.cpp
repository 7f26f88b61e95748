#include "model/platform.h"

#include <algorithm>
#include <sstream>

#include "util/strings.h"

namespace hedra::model {

namespace {

/// All parse errors carry the full offending spec so a bad entry in a
/// config file or CLI flag can be found verbatim.
[[noreturn]] void parse_fail(const std::string& text,
                             const std::string& reason) {
  throw Error("malformed platform spec '" + text + "': " + reason);
}

}  // namespace

const std::string& Platform::device_name(graph::DeviceId device) const {
  HEDRA_REQUIRE(device >= 1 && device <= device_names.size(),
                "platform has no device id " + std::to_string(device));
  return device_names[device - 1];
}

int Platform::units_of(graph::DeviceId device) const {
  HEDRA_REQUIRE(device >= 1 && device <= device_names.size(),
                "platform has no device id " + std::to_string(device));
  // Entries beyond device_units mean one unit, the same convention
  // ScheduleTrace::units_of and ChainWeighting::units_of use — a Platform
  // is aggregate-constructible pure data, so a shorter-than-names vector
  // can be observed before validate() runs.
  const std::size_t index = static_cast<std::size_t>(device) - 1;
  return index < device_units.size() ? device_units[index] : 1;
}

bool Platform::has_multi_units() const noexcept {
  return std::any_of(device_units.begin(), device_units.end(),
                     [](int units) { return units > 1; });
}

Frac Platform::speedup_of(graph::DeviceId device) const {
  HEDRA_REQUIRE(device >= 1 && device <= device_names.size(),
                "platform has no device id " + std::to_string(device));
  // Same missing-entries-mean-default convention as units_of.
  const std::size_t index = static_cast<std::size_t>(device) - 1;
  return index < device_speedup.size() ? device_speedup[index] : Frac(1);
}

bool Platform::has_speedups() const noexcept {
  return std::any_of(device_speedup.begin(), device_speedup.end(),
                     [](const Frac& s) { return s != Frac(1); });
}

Platform Platform::homogeneous(int cores) {
  Platform platform;
  platform.cores = cores;
  platform.validate();
  return platform;
}

Platform Platform::single_accelerator(int cores, std::string name) {
  Platform platform;
  platform.cores = cores;
  platform.device_names.push_back(std::move(name));
  platform.validate();
  return platform;
}

Platform Platform::symmetric(int cores, int num_devices, int units) {
  HEDRA_REQUIRE(num_devices >= 0, "device count must be non-negative");
  HEDRA_REQUIRE(units >= 1, "every device class needs >= 1 execution unit");
  Platform platform;
  platform.cores = cores;
  for (int d = 1; d <= num_devices; ++d) {
    platform.device_names.push_back("acc" + std::to_string(d));
  }
  if (units > 1) platform.device_units.assign(num_devices, units);
  platform.validate();
  return platform;
}

Platform Platform::parse(const std::string& text) {
  Platform platform;
  const auto colon = text.find(':');
  const std::string cores_text(trim(text.substr(0, colon)));
  if (cores_text.empty()) parse_fail(text, "missing the core count");
  try {
    platform.cores = static_cast<int>(parse_int(cores_text));
  } catch (const Error&) {
    parse_fail(text, "core count '" + cores_text + "' is not an integer");
  }
  if (colon != std::string::npos) {
    const std::string device_list = text.substr(colon + 1);
    if (trim(device_list).empty()) {
      parse_fail(text, "':' must be followed by at least one device name");
    }
    for (const auto& entry : split(device_list, ',')) {
      std::string item(trim(entry));
      if (item.empty()) parse_fail(text, "empty device entry");
      if (platform.device_names.size() >= kMaxParsedDevices) {
        parse_fail(text, "more than " + std::to_string(kMaxParsedDevices) +
                             " devices");
      }
      // "name[*units][@speedup]" — strip the speedup suffix first so a
      // "*units" never swallows an "@".
      Frac speedup(1);
      const auto at = item.find('@');
      const auto star = item.find('*');
      if (at != std::string::npos) {
        if (star != std::string::npos && star > at) {
          parse_fail(text, "'*units' must precede '@speedup' in '" + item +
                               "'");
        }
        const std::string speedup_text(trim(item.substr(at + 1)));
        try {
          speedup = parse_frac(speedup_text);
        } catch (const Error&) {
          parse_fail(text, "speedup '" + speedup_text +
                               "' is not a rational number");
        }
        if (speedup <= Frac(0)) {
          parse_fail(text, "speedup '" + speedup_text +
                               "' must be strictly positive");
        }
        item = std::string(trim(item.substr(0, at)));
      }
      std::string name(trim(item.substr(0, star)));
      int units = 1;
      if (star != std::string::npos) {
        const std::string units_text(trim(item.substr(star + 1)));
        try {
          units = static_cast<int>(parse_int(units_text));
        } catch (const Error&) {
          parse_fail(text, "unit count '" + units_text + "' of device '" +
                               name + "' is not an integer");
        }
        if (units < 1) {
          parse_fail(text, "device '" + name + "' needs >= 1 unit, got " +
                               std::to_string(units));
        }
      }
      platform.device_names.push_back(std::move(name));
      platform.device_units.push_back(units);
      platform.device_speedup.push_back(speedup);
    }
  }
  try {
    platform.validate();
  } catch (const Error& e) {
    parse_fail(text, e.message());
  }
  return platform;
}

std::string Platform::spec() const {
  std::ostringstream os;
  os << cores;
  for (std::size_t i = 0; i < device_names.size(); ++i) {
    const auto device = static_cast<graph::DeviceId>(i + 1);
    os << (i == 0 ? ':' : ',') << device_names[i];
    const int units = units_of(device);
    if (units > 1) os << '*' << units;
    const Frac speedup = speedup_of(device);
    if (speedup != Frac(1)) os << '@' << frac_spec_string(speedup);
  }
  return os.str();
}

std::string Platform::describe() const {
  std::ostringstream os;
  os << cores << " host core" << (cores == 1 ? "" : "s");
  if (device_names.empty()) {
    os << " (homogeneous)";
    return os.str();
  }
  os << " + accelerator" << (device_names.size() == 1 ? " " : "s ");
  for (std::size_t i = 0; i < device_names.size(); ++i) {
    if (i > 0) os << ", ";
    const auto device = static_cast<graph::DeviceId>(i + 1);
    os << device_names[i] << "(d" << i + 1;
    const int units = units_of(device);
    if (units > 1) os << " x" << units;
    const Frac speedup = speedup_of(device);
    if (speedup != Frac(1)) os << " @" << frac_spec_string(speedup) << "x";
    os << ")";
  }
  return os.str();
}

void Platform::validate() const {
  HEDRA_REQUIRE(cores >= 1, "platform needs at least one host core");
  for (const auto& name : device_names) {
    HEDRA_REQUIRE(!name.empty(), "accelerator device names must be non-empty");
    HEDRA_REQUIRE(name.find_first_of(":,*@ \t") == std::string::npos,
                  "accelerator device name '" + name +
                      "' contains a spec metacharacter");
    HEDRA_REQUIRE(std::count(device_names.begin(), device_names.end(), name) ==
                      1,
                  "duplicate accelerator device name '" + name + "'");
  }
  HEDRA_REQUIRE(device_units.empty() ||
                    device_units.size() == device_names.size(),
                "device_units must be empty or hold one entry per device");
  for (const int units : device_units) {
    HEDRA_REQUIRE(units >= 1, "every device class needs >= 1 execution unit");
  }
  HEDRA_REQUIRE(device_speedup.empty() ||
                    device_speedup.size() == device_names.size(),
                "device_speedup must be empty or hold one entry per device");
  for (const Frac& speedup : device_speedup) {
    HEDRA_REQUIRE(speedup > Frac(0),
                  "every device speedup must be strictly positive");
  }
}

bool operator==(const Platform& a, const Platform& b) {
  if (a.cores != b.cores || a.device_names != b.device_names) return false;
  for (std::size_t i = 0; i < a.device_names.size(); ++i) {
    const auto device = static_cast<graph::DeviceId>(i + 1);
    if (a.units_of(device) != b.units_of(device)) return false;
    if (a.speedup_of(device) != b.speedup_of(device)) return false;
  }
  return true;
}

std::vector<std::string> check_supports(const Platform& platform,
                                        const graph::Dag& dag) {
  std::vector<std::string> issues;
  const auto num_devices = static_cast<graph::DeviceId>(platform.num_devices());
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    const graph::DeviceId device = dag.device(v);
    if (device > num_devices) {
      issues.push_back("node " + dag.label(v) + " is placed on device " +
                       std::to_string(device) + " but the platform has only " +
                       std::to_string(platform.num_devices()) +
                       " accelerator device(s)");
    }
  }
  return issues;
}

bool supports(const Platform& platform, const graph::Dag& dag) {
  return check_supports(platform, dag).empty();
}

Platform platform_for(const graph::Dag& dag, int cores) {
  return Platform::symmetric(cores, dag.max_device());
}

}  // namespace hedra::model
