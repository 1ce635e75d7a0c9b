// The benchmark's calls into the library's public pipeline functions. Each
// wrapper makes exactly one library call and, when tracing is on, records
// it as a span named after the module it enters ("core.fit",
// "baselines.tigger.generate", "eval.save_artifact", ...), with the process
// counters measured around it as span arguments.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/generator.h"
#include "common/status.h"
#include "config/param_map.h"
#include "eval/artifact.h"
#include "graph/temporal_graph.h"
#include "util.h"

namespace perfbench {

namespace config = tgsim::config;

/// Everything a workload needs to know about its run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and a short window: every workload and check, fast.
  bool smoke = false;
  /// Online CPUs of the machine.
  int nproc = 1;
};

/// A registry method plus the parameter overlay it is built with.
struct ModelSpec {
  std::string method;
  config::ParamMap params;
};

/// `method` with the ParamMap parsed from `key=value` tokens (aborts on a
/// malformed token: the benchmark's own constants are the only input).
ModelSpec Spec(const std::string& method,
               const std::vector<std::string>& tokens);

/// Span prefix of a method's module: "core" for TGAE, "baselines.<lower
/// case name>" for the baselines.
std::string LayerOf(const std::string& method);

/// Builds `spec` through the registry and fits it on `observed`. Records a
/// "<layer>.fit" span carrying minflt / user_s / sys_s / wall_s /
/// tensor_peak_mib / threads. `wall_s` receives the fit's wall time.
tgsim::Result<std::unique_ptr<tgsim::baselines::TemporalGraphGenerator>>
FitModel(
    const ModelSpec& spec, const tgsim::graphs::TemporalGraph& observed,
    tgsim::Rng& rng, double* wall_s = nullptr);

/// Generate on the artifact generate stream of `seed`. "<layer>.generate"
/// span with minflt and edges.
tgsim::graphs::TemporalGraph GenerateGraph(
    tgsim::baselines::TemporalGraphGenerator& gen, const std::string& method,
    uint64_t seed);

/// eval::SaveArtifact; "eval.save_artifact" span with the file's bytes.
tgsim::Status SaveModel(const tgsim::baselines::TemporalGraphGenerator& gen,
                        const ModelSpec& spec, const std::string& path);

/// eval::LoadArtifact; "eval.load_artifact" span.
tgsim::Result<tgsim::eval::LoadedArtifact> LoadModel(const std::string& path);

/// datasets::LoadEdgeList; "datasets.load" span.
tgsim::Result<tgsim::graphs::TemporalGraph> LoadGraph(const std::string& path);

/// datasets::WriteEdgeList into a file; "datasets.write" span with edges.
tgsim::Status WriteGraph(const tgsim::graphs::TemporalGraph& g,
                         const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
