#pragma once

/// \file common.h
/// Shared plumbing of the hedra benchmark: the run options, the result a
/// workload hands back, a monotonic stopwatch, order statistics, the
/// benchmark's own span recorder and a small JSON writer.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string admissiond;  ///< path of the admissiond binary
  std::string work_dir;    ///< scratch directory for journals and traces
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the contract's four fields plus
/// the check details (digests, proven makespans) that run.py compares
/// against the recorded expectations.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable check failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Extra JSON members ("key": value, ...) for the details file.
  std::vector<std::pair<std::string, std::string>> details;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the first kMaxProblems are kept verbatim.
  void fail_check(std::string what) {
    correct = false;
    if (problems.size() < kMaxProblems) problems.push_back(std::move(what));
    ++problem_count;
  }
  static constexpr std::size_t kMaxProblems = 20;
  std::uint64_t problem_count = 0;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// The set-up metric of every workload.  `trial` (which returns the
/// seconds it measured) runs in batches — one before and one after the
/// measured phase — of at least three trials and a quarter second each,
/// and the median of all trials is reported, so that it sees the machine
/// at both ends of the run.
template <typename Trial>
class SetupTrials {
 public:
  explicit SetupTrials(Trial trial) : trial_(std::move(trial)) {}

  void take_batch() {
    const std::int64_t start = now_ns();
    for (int n = 0; n < 15 && (n < 3 || seconds_since(start) < 0.25); ++n) {
      trials_.push_back(trial_());
    }
  }
  [[nodiscard]] double median_s() const { return median(trials_); }

 private:
  Trial trial_;
  std::vector<double> trials_;
};

/// The benchmark's own spans around public calls into the program: name,
/// start, end, parent (index, -1 for a root) and the request they belong
/// to.  Kept in memory and written out once when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int begin(std::string name, std::uint64_t request, int parent = -1);
  void end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  /// Records an already-measured interval.
  int add(std::string name, std::uint64_t request, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] double duration_us(int index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }

  /// chrome://tracing JSON, one row per request.
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
};

/// JSON string literal for `text`.
[[nodiscard]] std::string json_string(const std::string& text);
/// JSON number with every significant digit.
[[nodiscard]] std::string json_number(double value);

/// FNV-1a digest, printed as 16 hex digits.
class Digest {
 public:
  void feed(const std::string& text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Writes `text` to `path`; throws std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace perfbench
