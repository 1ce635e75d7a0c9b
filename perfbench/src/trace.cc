#include "trace.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util.h"

namespace perfbench {
namespace {

std::atomic<int64_t> g_next_span_id{1};
std::mutex g_mu;
// One buffer per recording thread, appended to only by that thread. A deque
// never moves its records, so closing a span costs no lock and no
// reallocation stall inside the parent span it would be charged to.
std::vector<std::unique_ptr<std::deque<SpanRecord>>> g_buffers;  // g_mu.

thread_local bool t_enabled = false;
thread_local std::vector<const SpanRecord*> t_open;  // Innermost last.
thread_local std::deque<SpanRecord>* t_buffer = nullptr;
thread_local int t_tid = 0;  // Index of t_buffer in g_buffers, plus 1.

void RegisterThread() {
  if (t_buffer != nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  g_buffers.push_back(std::make_unique<std::deque<SpanRecord>>());
  t_buffer = g_buffers.back().get();
  t_tid = static_cast<int>(g_buffers.size());
}

}  // namespace

void SetTracing(bool on) { t_enabled = on; }

std::vector<SpanRecord> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRecord> spans;
  for (const auto& buffer : g_buffers)
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  return spans;
}

Span::Span(std::string name) {
  if (!t_enabled) return;
  active_ = true;
  record_.name = std::move(name);
  record_.id = g_next_span_id.fetch_add(1);
  RegisterThread();
  record_.tid = t_tid;
  if (t_open.empty()) {
    record_.root = record_.id;
  } else {
    record_.parent = t_open.back()->id;
    record_.root = t_open.back()->root;
  }
  t_open.push_back(&record_);
  record_.start_s = Now();
  record_.cpu_start_s = ThreadCpuNow();
}

Span::~Span() {
  if (!active_) return;
  record_.cpu_end_s = ThreadCpuNow();
  record_.end_s = Now();
  t_open.pop_back();
  t_buffer->push_back(std::move(record_));
}

void Span::Arg(const std::string& key, double value) {
  if (active_) record_.args.emplace_back(key, value);
}

void OverheadSamples::Add(int key, bool traced, double seconds) {
  auto& [traced_s, untraced_s] = by_key_[key];
  (traced ? traced_s : untraced_s).push_back(seconds);
}

void OverheadSamples::Merge(const OverheadSamples& other) {
  for (const auto& [key, samples] : other.by_key_) {
    auto& mine = by_key_[key];
    mine.first.insert(mine.first.end(), samples.first.begin(),
                      samples.first.end());
    mine.second.insert(mine.second.end(), samples.second.begin(),
                       samples.second.end());
  }
}

double OverheadSamples::Share() const {
  std::vector<double> ratios;
  for (const auto& [key, samples] : by_key_) {
    const double untraced = Median(samples.second);
    if (!samples.first.empty() && untraced > 0)
      ratios.push_back(Median(samples.first) / untraced);
  }
  return ratios.empty() ? 0 : Median(ratios) - 1.0;
}

double ArgOf(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.args)
    if (k == key) return v;
  return 0;
}

SpanIndex::SpanIndex(std::vector<SpanRecord> spans)
    : spans_(std::move(spans)),
      self_(spans_.size()),
      self_cpu_(spans_.size()),
      root_name_(spans_.size()) {
  std::unordered_map<int64_t, size_t> by_id;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_id[spans_[i].id] = i;
    self_[i] = spans_[i].duration();
    self_cpu_[i] = spans_[i].cpu();
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto root = by_id.find(spans_[i].root);
    if (root != by_id.end()) root_name_[i] = spans_[root->second].name;
  }
  // Children nest inside their parent on one thread, so the covered time is
  // the sum of their durations.
  for (const SpanRecord& s : spans_) {
    auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    self_[parent->second] -= s.duration();
    self_cpu_[parent->second] -= s.cpu();
  }
}

std::map<int64_t, double> SpanIndex::SumPerRoot(
    const std::string& root_name,
    const std::function<bool(const SpanRecord&)>& match,
    const std::function<double(const SpanRecord&, double)>& value) const {
  std::map<int64_t, double> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root_name_[i] != root_name || !match(spans_[i])) continue;
    sums[spans_[i].root] += value(spans_[i], self_[i]);
  }
  return sums;
}

std::vector<double> SpanIndex::UnattributedShares(
    const std::string& root_name) const {
  std::vector<double> shares;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != -1 || spans_[i].name != root_name) continue;
    const double total = spans_[i].duration();
    const double outside = std::max(0.0, std::min(self_[i], self_cpu_[i]));
    shares.push_back(total > 0 ? outside / total : 0);
  }
  return shares;
}

std::vector<std::pair<std::string, double>> SpanIndex::SelfTimeByName() const {
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans_.size(); ++i) totals[spans_[i].name] += self_[i];
  std::vector<std::pair<std::string, double>> out(totals.begin(), totals.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

bool SpanIndex::WriteChromeTrace(const std::string& path,
                                 const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  double epoch = spans_.empty() ? 0 : spans_[0].start_s;
  for (const SpanRecord& s : spans_) epoch = std::min(epoch, s.start_s);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata_json
      << ", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << JsonNumber((s.start_s - epoch) * 1e6)
        << ", \"dur\": " << JsonNumber(s.duration() * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"root\": " << s.root
        << ", \"self_us\": " << JsonNumber(self_[i] * 1e6)
        << ", \"self_cpu_us\": " << JsonNumber(self_cpu_[i] * 1e6);
    for (const auto& [k, v] : s.args)
      out << ", \"" << JsonEscape(k) << "\": " << JsonNumber(v);
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
