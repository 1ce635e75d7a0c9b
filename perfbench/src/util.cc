#include "util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Rusage Rusage::Take() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  r.minflt = ru.ru_minflt;
  r.maxrss_kib = ru.ru_maxrss;
  return r;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return -1;
  return static_cast<int64_t>(in.tellg());
}

void Report::Op(bool ok, const std::string& error) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(error);
}

void Report::Ops(int64_t attempted, int64_t failed,
                 const std::vector<std::string>& errors) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& e : errors)
    if (errors_.size() < 20) errors_.push_back(e);
}

void Report::CheckFailed(const std::string& what) {
  ++checks_failed_;
  Op(false, "check failed: " + what);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::string Report::ResultJson(const std::vector<std::string>& names,
                               std::vector<std::string>* missing) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      missing->push_back(name);
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"value\": ";
    out += JsonNumber(it->second.value);
    out += ", \"unit\": \"";
    out += JsonEscape(it->second.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
