// Small helpers shared by the perfbench workloads: wall clock, process
// counters, order statistics, checksums and the run report.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// CPU seconds the calling thread has run (user + system).
double ThreadCpuNow();

/// Process-wide getrusage(RUSAGE_SELF) snapshot.
struct Rusage {
  double user_s = 0;
  double sys_s = 0;
  int64_t minflt = 0;
  int64_t maxrss_kib = 0;
  static Rusage Take();
};

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
double Median(std::vector<double> values);

/// Nearest-rank percentile, `p` in [0, 100]; 0 for an empty set.
double Percentile(std::vector<double> values, double p);

/// FNV-1a 64-bit hash of a byte string.
uint64_t Fnv1a(const std::string& bytes);

/// Whole file contents; empty string when the file cannot be read.
std::string ReadFile(const std::string& path);

/// Size in bytes, or -1 when the file does not exist.
int64_t FileSize(const std::string& path);

/// What one run reports: operation counts, the correctness verdict and the
/// named metrics of the mode it ran in.
class Report {
 public:
  /// Counts one attempted operation; a failed one also records `error`.
  void Op(bool ok, const std::string& error = "");
  /// Counts a batch of operations run elsewhere (e.g. by client threads).
  void Ops(int64_t attempted, int64_t failed,
           const std::vector<std::string>& errors);
  /// Records a failed output check. It counts as a failed operation, and
  /// a run with any failed check is not correct.
  void CheckFailed(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  /// Free-form line printed ahead of the result (sample counts, notes).
  void Note(const std::string& line);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// the metrics named in `names`; names never Set go to `missing`.
  std::string ResultJson(const std::vector<std::string>& names,
                         std::vector<std::string>* missing) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::map<std::string, Metric> metrics_;
};

/// Escapes a string for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

/// Full-precision rendering of a double for JSON output.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
