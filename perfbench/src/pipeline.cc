#include "pipeline.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/memory_tracker.h"
#include "datasets/io.h"
#include "eval/registry.h"
#include "parallel/thread_pool.h"
#include "trace.h"

namespace perfbench {

using tgsim::Result;
using tgsim::Rng;
using tgsim::Status;
using tgsim::baselines::TemporalGraphGenerator;
using tgsim::graphs::TemporalGraph;

ModelSpec Spec(const std::string& method,
               const std::vector<std::string>& tokens) {
  Result<config::ParamMap> params = config::ParamMap::FromTokens(tokens);
  if (!params.ok()) {
    std::fprintf(stderr, "perfbench: bad parameter tokens: %s\n",
                 params.status().ToString().c_str());
    std::abort();
  }
  return ModelSpec{method, std::move(params).value()};
}

std::string LayerOf(const std::string& method) {
  if (method == "TGAE") return "core";
  std::string lower;
  for (char c : method)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return "baselines." + lower;
}

Result<std::unique_ptr<TemporalGraphGenerator>> FitModel(
    const ModelSpec& spec, const TemporalGraph& observed, Rng& rng,
    double* wall_s) {
  Result<std::unique_ptr<TemporalGraphGenerator>> gen =
      tgsim::eval::MakeGenerator(spec.method, spec.params);
  if (!gen.ok()) return gen.status();
  Span span(LayerOf(spec.method) + ".fit");
  const Rusage before = Rusage::Take();
  const double start = Now();
  {
    tgsim::MemoryUsageScope memory;
    gen.value()->Fit(observed, rng);
    span.Arg("tensor_peak_mib", memory.PeakMiB());
  }
  const double wall = Now() - start;
  const Rusage after = Rusage::Take();
  span.Arg("wall_s", wall);
  span.Arg("user_s", after.user_s - before.user_s);
  span.Arg("sys_s", after.sys_s - before.sys_s);
  span.Arg("minflt", static_cast<double>(after.minflt - before.minflt));
  span.Arg("threads", tgsim::parallel::ThreadPool::GlobalThreads());
  if (wall_s != nullptr) *wall_s = wall;
  return gen;
}

TemporalGraph GenerateGraph(TemporalGraphGenerator& gen,
                            const std::string& method, uint64_t seed) {
  Span span(LayerOf(method) + ".generate");
  const Rusage before = Rusage::Take();
  Rng rng = tgsim::eval::MakeSeedStreams(seed).generate;
  TemporalGraph out = gen.Generate(rng);
  span.Arg("minflt",
           static_cast<double>(Rusage::Take().minflt - before.minflt));
  span.Arg("edges", static_cast<double>(out.num_edges()));
  return out;
}

Status SaveModel(const TemporalGraphGenerator& gen, const ModelSpec& spec,
                 const std::string& path) {
  Span span("eval.save_artifact");
  Status saved = tgsim::eval::SaveArtifact(gen, spec.method, spec.params, path);
  span.Arg("bytes", static_cast<double>(FileSize(path)));
  return saved;
}

Result<tgsim::eval::LoadedArtifact> LoadModel(const std::string& path) {
  Span span("eval.load_artifact");
  return tgsim::eval::LoadArtifact(path);
}

Result<TemporalGraph> LoadGraph(const std::string& path) {
  Span span("datasets.load");
  return tgsim::datasets::LoadEdgeList(path);
}

Status WriteGraph(const TemporalGraph& g, const std::string& path) {
  Span span("datasets.write");
  span.Arg("edges", static_cast<double>(g.num_edges()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  tgsim::datasets::WriteEdgeList(g, out);
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

}  // namespace perfbench
