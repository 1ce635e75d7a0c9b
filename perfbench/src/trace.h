// Span recorder of the traced benchmark run. The benchmark wraps each call it
// makes into a library module in a Span named "<module>.<call>"; spans stay
// in memory and are written once, at exit, as Chrome trace-event JSON
// (open it in chrome://tracing or https://ui.perfetto.dev).
//
// Recording is per thread and off by default, so an untraced run pays one
// thread-local load per span. A span opened with no open parent on its
// thread is a root: one unit of work (a set-up repetition, a measured
// iteration, one request). Every span carries its root's id, which is how
// per-layer figures are summed per unit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root.
  int64_t root = 0;     // Id of the outermost open ancestor (own id for a root).
  int tid = 0;
  double start_s = 0;  // Seconds on the steady clock.
  double end_s = 0;
  double cpu_start_s = 0;  // Thread CPU seconds (ThreadCpuNow).
  double cpu_end_s = 0;
  std::vector<std::pair<std::string, double>> args;

  double duration() const { return end_s - start_s; }
  double cpu() const { return cpu_end_s - cpu_start_s; }
};

/// Turns recording on or off for spans opened later on the calling thread.
void SetTracing(bool on);

/// Every span closed so far, thread by thread in closing order. Call it
/// once the threads that record have stopped recording.
std::vector<SpanRecord> RecordedSpans();

/// RAII span. Inert when tracing is off on this thread at construction.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument (a counter measured inside the span).
  void Arg(const std::string& key, double value);
  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Span analysis over a finished run.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans);

  /// Sums `value(span, self_time)` over the spans `match` accepts whose
  /// root is named `root_name`, keyed by root id (roots without a match are
  /// absent).
  std::map<int64_t, double> SumPerRoot(
      const std::string& root_name,
      const std::function<bool(const SpanRecord&)>& match,
      const std::function<double(const SpanRecord&, double)>& value) const;

  /// Per root named `root_name`: the time it spent outside its direct
  /// children, as a share of its wall duration. That time is the smaller of
  /// the wall-clock and the thread-CPU-clock gap: a preemption between two
  /// child spans widens only the wall gap, the thread CPU clock of a VM can
  /// shift by a few hundred microseconds between adjacent readings, which
  /// widens only the CPU gap, and work no span covers widens both. Empty
  /// when there is no such root.
  std::vector<double> UnattributedShares(const std::string& root_name) const;

  /// Total self time per span name, for the text summary.
  std::vector<std::pair<std::string, double>> SelfTimeByName() const;

  /// Writes the spans as Chrome trace-event JSON with `metadata_json` (an
  /// object) under "otherData". Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<double> self_;  // Duration minus direct children's durations.
  std::vector<double> self_cpu_;  // The same in thread CPU time.
  std::vector<std::string> root_name_;  // Name of each span's root.
};

/// Wall times of measured units (iterations, requests), split by whether
/// they were traced and keyed by what they ran (an input, a model), for the
/// tracing-overhead figure. Traced and untraced units are compared within a
/// key only, so cost differences between keys do not count as overhead.
class OverheadSamples {
 public:
  void Add(int key, bool traced, double seconds);
  void Merge(const OverheadSamples& other);
  /// Median over the keys holding both kinds of (median traced / median
  /// untraced) - 1; 0 when no key holds both.
  double Share() const;

 private:
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> by_key_;
};

/// Value of a span argument, or 0 when the span does not carry it.
double ArgOf(const SpanRecord& span, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
