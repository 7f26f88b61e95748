#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int SpanLog::begin(std::string name, std::uint64_t request, int parent) {
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::add(std::string name, std::uint64_t request, int parent,
                 std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanLog::chrome_json() const {
  std::int64_t epoch = 0;
  if (!spans_.empty()) {
    epoch = std::min_element(spans_.begin(), spans_.end(),
                             [](const Span& a, const Span& b) {
                               return a.start_ns < b.start_ns;
                             })
                ->start_ns;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - epoch) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"parent\":" << s.parent << "}}";
  }
  out << "]}";
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Digest::feed(const std::string& text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

}  // namespace perfbench
