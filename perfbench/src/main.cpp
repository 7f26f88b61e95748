/// \file main.cpp
/// hedra_bench: runs one benchmark workload and prints its result.
///
///     hedra_bench --workload admit-host-1k --seed 71 --seconds 20 --trace 0
///                 --admissiond PATH --work-dir DIR --details FILE
///
/// The last line of stdout is the result object
/// {"correct", "attempted", "failed", "metrics"}; FILE receives the same
/// plus the machine fingerprint, the check details and every problem
/// found.  perfbench/run.py builds this binary and wraps it.

#include <signal.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/batch_kernels.h"
#include "workloads.h"

#ifndef HEDRA_BENCH_BUILD_TYPE
#define HEDRA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::json_number;
using perfbench::json_string;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  static const std::map<long, std::string> names = {
      {0xEF53, "ext4"},        {0x58465342, "xfs"},   {0x01021994, "tmpfs"},
      {0x794c7630, "overlayfs"}, {0x9123683E, "btrfs"}, {0x6969, "nfs"},
      {0x2fc12fc1, "zfs"},     {0x65735546, "fuse"},  {0x5346544e, "ntfs"}};
  const auto it = names.find(static_cast<long>(info.f_type));
  if (it != names.end()) return it->second;
  std::ostringstream os;
  os << "0x" << std::hex << info.f_type;
  return os.str();
}

std::string fingerprint_json(const std::string& work_dir) {
  std::ostringstream os;
  os << "{\"cpu_model\": " << json_string(cpu_model())
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": " << json_string(compiler())
     << ", \"build_type\": " << json_string(HEDRA_BENCH_BUILD_TYPE)
     << ", \"batch_kernel_backend\": "
     << json_string(hedra::analysis::batch_kernel_backend())
     << ", \"journal_fs\": " << json_string(filesystem_of(work_dir)) << "}";
  return os.str();
}

std::string result_json(const perfbench::RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string details_json(const perfbench::Options& o, const perfbench::RunResult& r) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
     << ", \"seconds\": " << json_number(o.seconds)
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"fingerprint\": " << fingerprint_json(o.work_dir)
     << ", \"result\": " << result_json(r) << ", \"problem_count\": " << r.problem_count
     << ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(r.problems[i]);
  }
  os << "]";
  for (const auto& [key, value] : r.details) os << ", " << json_string(key) << ": " << value;
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies must surface as a failed write, not kill the client.
  signal(SIGPIPE, SIG_IGN);
  perfbench::Options options;
  std::string details_path;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--admissiond") {
        options.admissiond = value;
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else if (key == "--details") {
        details_path = value;
      } else {
        throw std::invalid_argument("unknown option " + key);
      }
    }
    if (options.work_dir.empty() || options.seconds <= 0.0) {
      throw std::invalid_argument("--work-dir and a positive --seconds are required");
    }
    std::filesystem::create_directories(options.work_dir);

    perfbench::RunResult result;
    if (options.workload == "admit-host-1k") {
      result = perfbench::run_admit_host(options);
    } else if (options.workload == "admit-contended") {
      result = perfbench::run_admit_contended(options);
    } else if (options.workload == "sweep") {
      result = perfbench::run_sweep(options);
    } else if (options.workload == "exact-fig7") {
      result = perfbench::run_exact(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    for (const auto& problem : result.problems) std::cerr << "check failed: " << problem << "\n";
    if (result.problem_count > result.problems.size()) {
      std::cerr << "check failed: " << result.problem_count - result.problems.size()
                << " more problems\n";
    }
    if (!details_path.empty()) {
      perfbench::write_text_file(details_path, details_json(options, result));
    }
    std::cout << result_json(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hedra_bench: " << e.what() << "\n";
    return 1;
  }
}
