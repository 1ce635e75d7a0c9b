// tgsim_perfbench: one run of one workload of the end-to-end benchmark.
//
//   tgsim_perfbench --workload fit-tgae|generate-mix|serve-mixed --seed N
//                   --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//                   [--trace-out FILE] [--commit ID]
//
// Prints a stamp line, notes, and as its last line the result object. An
// untraced run reports the end-to-end metrics; a traced run (--trace 1)
// records spans, reports the per-layer metrics and writes the spans to
// --trace-out as Chrome trace-event JSON. perfbench/run.py builds this
// binary and is the documented entry point.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nn/simd.h"
#include "parallel/thread_pool.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Must match BENCHMARK.json (perfbench/run.py checks the result against it).
const std::vector<std::string> kEndToEnd = {
    "setup_s",      "peak_rss_mib",         "ops_ok_share",
    "fit_s",        "generate_edges_per_s", "serve_p50_ms",
    "serve_p99_ms", "serve_rps",            "serve_update_p50_ms"};
const std::vector<std::string> kPerLayer = {
    "proc.fit_minflt",
    "proc.fit_sys_s",
    "proc.fit_user_s",
    "proc.fit_cpu_util",
    "nn.tensor_peak_mib",
    "graph.ego_sample_s",
    "graph.ego_nodes",
    "core.fit_s",
    "eval.save_artifact_s",
    "eval.artifact_bytes",
    "datasets.load_s",
    "core.generate_s",
    "baselines.tigger.generate_s",
    "baselines.vgae.generate_s",
    "baselines.dymond.generate_s",
    "proc.generate_minflt",
    "eval.load_artifact_s",
    "datasets.write_s",
    "datasets.edges_written",
    "serve.server_generate_ms",
    "serve.overhead_ms",
    "serve.cache_hit_share",
    "serve.evictions",
    "serve.reply_bytes",
    "metrics.gen_degree_mmd",
    "bench.trace_overhead_share",
    "bench.unattributed_share"};

// Size of the library's global thread pool, pinned for every run (fewer
// when nproc is smaller): TGAE fit was steadier at 2 threads than at 4.
constexpr int kThreads = 2;

// Roots in the order a layer's figure is taken from: the measured loop when
// the layer runs there, else the probes, set-up repetitions or checks.
const char* const kRootPreference[] = {"iteration", "request", "probe",
                                       "setup",     "check",   "replay"};

using Match = std::function<bool(const SpanRecord&)>;
using Value = std::function<double(const SpanRecord&, double)>;

std::vector<double> Values(const std::map<int64_t, double>& sums) {
  std::vector<double> out;
  for (const auto& [root, v] : sums) out.push_back(v);
  return out;
}

// Median over units (roots) of a per-unit sum, from the preferred root kind
// that holds the layer at all; 0 when no span matches.
double LayerMedian(const SpanIndex& index, const Match& match,
                   const Value& value) {
  for (const char* root : kRootPreference) {
    auto sums = index.SumPerRoot(root, match, value);
    if (!sums.empty()) return Median(Values(sums));
  }
  return 0;
}

// Median over units of sum(numerator) / sum(denominator).
double LayerRatio(const SpanIndex& index, const Match& match,
                  const Value& numerator, const Value& denominator) {
  for (const char* root : kRootPreference) {
    auto num = index.SumPerRoot(root, match, numerator);
    if (num.empty()) continue;
    auto den = index.SumPerRoot(root, match, denominator);
    std::vector<double> ratios;
    for (const auto& [id, v] : num)
      if (den[id] > 0) ratios.push_back(v / den[id]);
    return Median(ratios);
  }
  return 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void ReportLayers(const SpanIndex& index, Report& report) {
  auto named = [](std::string name) {
    return Match([name](const SpanRecord& s) { return s.name == name; });
  };
  auto self = Value([](const SpanRecord&, double self_s) { return self_s; });
  auto arg = [](std::string key) {
    return Value([key](const SpanRecord& s, double) { return ArgOf(s, key); });
  };
  const Match fits = [](const SpanRecord& s) { return EndsWith(s.name, ".fit"); };
  const Match generates = [](const SpanRecord& s) {
    return EndsWith(s.name, ".generate") && s.name.rfind("serve.", 0) != 0;
  };

  report.Set("proc.fit_minflt", LayerMedian(index, fits, arg("minflt")), "count");
  report.Set("proc.fit_sys_s", LayerMedian(index, fits, arg("sys_s")), "s");
  report.Set("proc.fit_user_s", LayerMedian(index, fits, arg("user_s")), "s");
  report.Set("proc.fit_cpu_util",
             LayerRatio(index, fits,
                        [](const SpanRecord& s, double) {
                          return ArgOf(s, "user_s") + ArgOf(s, "sys_s");
                        },
                        [](const SpanRecord& s, double) {
                          return ArgOf(s, "wall_s") * ArgOf(s, "threads");
                        }),
             "share");
  report.Set("nn.tensor_peak_mib",
             LayerMedian(index, named("core.fit"), arg("tensor_peak_mib")),
             "MiB");
  for (const char* layer :
       {"core.fit", "eval.save_artifact", "datasets.load", "core.generate",
        "baselines.tigger.generate", "baselines.vgae.generate",
        "baselines.dymond.generate", "eval.load_artifact", "datasets.write"})
    report.Set(std::string(layer) + "_s", LayerMedian(index, named(layer), self),
               "s");
  report.Set("eval.artifact_bytes",
             LayerMedian(index, named("eval.save_artifact"), arg("bytes")),
             "bytes");
  report.Set("proc.generate_minflt", LayerMedian(index, generates, arg("minflt")),
             "count");
  report.Set("datasets.edges_written",
             LayerMedian(index, named("datasets.write"), arg("edges")), "count");

  // Coverage: the layer spans must explain >= 90% of the wall time of each
  // measured iteration and request; the worst one is reported.
  double unattributed = 0;
  for (const char* root : {"iteration", "request"}) {
    for (double share : index.UnattributedShares(root)) {
      unattributed = std::max(unattributed, share);
      if (share > 0.10)
        report.CheckFailed(std::string("spans explain less than 90% of a ") +
                           root + "'s wall time (" + std::to_string(share) +
                           " unattributed)");
    }
  }
  report.Set("bench.unattributed_share", unattributed, "share");
}

struct Args {
  RunConfig cfg;
  std::string workdir = ".";
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: tgsim_perfbench --workload "
               "fit-tgae|generate-mix|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--smoke] [--workdir DIR] "
               "[--trace-out FILE] [--commit ID]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.cfg.workload = value;
      else if (flag == "--seed") args.cfg.seed = std::stoull(value);
      else if (flag == "--seconds") args.cfg.seconds = std::stod(value);
      else if (flag == "--trace") args.cfg.trace = value == "1";
      else if (flag == "--workdir") args.workdir = value;
      else if (flag == "--trace-out") args.trace_out = value;
      else if (flag == "--commit") args.commit = value;
      else Usage("unknown flag " + flag);
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  return args;
}

std::string StampJson(const Args& args) {
  namespace kernels = tgsim::nn::kernels;
  const RunConfig& c = args.cfg;
  return std::string("{\"workload\": \"") + JsonEscape(c.workload) +
         "\", \"seed\": " + std::to_string(c.seed) +
         ", \"seconds\": " + JsonNumber(c.seconds) +
         ", \"trace\": " + (c.trace ? "1" : "0") +
         ", \"smoke\": " + (c.smoke ? "true" : "false") +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
         ", \"compiler\": \"" PERFBENCH_COMPILER "\"" +
         ", \"simd_backend\": \"" +
         kernels::BackendName(kernels::ActiveBackend()) + "\"" +
         ", \"threads\": " +
         std::to_string(tgsim::parallel::ThreadPool::GlobalThreads()) +
         ", \"nproc\": " + std::to_string(c.nproc) + ", \"commit\": \"" +
         JsonEscape(args.commit) + "\"}";
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  RunConfig& cfg = args.cfg;
  cfg.nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  if (chdir(args.workdir.c_str()) != 0) Usage("cannot enter " + args.workdir);
  tgsim::parallel::ThreadPool::SetGlobalThreads(std::min(kThreads, cfg.nproc));

  Report report;
  if (cfg.workload == "fit-tgae") RunFitTgae(cfg, report);
  else if (cfg.workload == "generate-mix") RunGenerateMix(cfg, report);
  else if (cfg.workload == "serve-mixed") RunServeMixed(cfg, report);
  else Usage("unknown workload '" + cfg.workload + "'");

  report.Set("peak_rss_mib",
             static_cast<double>(Rusage::Take().maxrss_kib) / 1024.0, "MiB");
  const std::string stamp = StampJson(args);
  if (cfg.trace) {
    SpanIndex index(RecordedSpans());
    ReportLayers(index, report);
    if (!args.trace_out.empty() &&
        !index.WriteChromeTrace(args.trace_out, stamp))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    std::fprintf(stderr, "self time by span (s):\n");
    for (const auto& [name, seconds] : index.SelfTimeByName())
      std::fprintf(stderr, "  %-28s %10.4f\n", name.c_str(), seconds);
  }
  // Set last: the coverage check above may still fail an operation.
  report.Set("ops_ok_share",
             static_cast<double>(report.attempted() - report.failed()) /
                 static_cast<double>(std::max<int64_t>(1, report.attempted())),
             "share");

  for (const std::string& error : report.errors())
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::printf("{\"stamp\": %s}\n", stamp.c_str());
  for (const std::string& note : report.notes())
    std::printf("# %s\n", note.c_str());
  std::vector<std::string> missing;
  const std::string result =
      report.ResultJson(cfg.trace ? kPerLayer : kEndToEnd, &missing);
  if (!missing.empty()) {
    for (const std::string& name : missing)
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
