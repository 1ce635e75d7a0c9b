// The serve half of the benchmark: an in-process serve::Server on an AF_UNIX
// socket, a closed loop of client connections driving it, and the probes
// that check served payloads against in-process generation.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/temporal_graph.h"
#include "pipeline.h"
#include "serve/server.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// What to fit and serve.
struct ServeSetup {
  std::string prefix;             // File-name prefix inside the work dir.
  std::vector<ModelSpec> models;  // Fitted on the graph minus the delta.
  std::vector<double> weights;    // Request share per model (any scale).
  /// Models (indices) that `update` ops go to, in turn.
  std::vector<size_t> update_cycle;
  /// Size the cache budget so models 0 and 1 cannot both be resident
  /// alongside the rest (they evict each other); otherwise it is twice the
  /// summed charge.
  bool evict_pair = false;
  int workers = 2;
};

struct ServedModel {
  std::string name;
  std::string method;
  std::string path;
  double weight = 0;
  int64_t charge = 0;  // Cache charge: ResidentStateBytes or file size.
};

/// A running server over freshly fitted artifacts.
class ServeFixture {
 public:
  /// Holds out kDeltaEdges random edges of `graph`, fits every model on
  /// the rest, saves the artifacts and the delta, sizes the budget and
  /// starts listening. `fit_s` receives the summed Fit wall time.
  static tgsim::Result<std::unique_ptr<ServeFixture>> Start(
      const ServeSetup& setup, const tgsim::graphs::TemporalGraph& graph,
      uint64_t seed, double* fit_s);

  const std::vector<ServedModel>& models() const { return models_; }
  const std::vector<size_t>& update_cycle() const { return update_cycle_; }
  const std::string& socket() const { return socket_; }
  const std::string& delta_path() const { return delta_path_; }
  int64_t delta_edges() const { return delta_edges_; }
  int64_t budget() const { return budget_; }

 private:
  std::vector<ServedModel> models_;
  std::vector<size_t> update_cycle_;
  std::string socket_;
  std::string delta_path_;
  int64_t delta_edges_ = 0;
  int64_t budget_ = 0;
  std::unique_ptr<tgsim::serve::Server> server_;
};

struct LoadOptions {
  int clients = 2;
  /// The loop runs for `seconds` and until `min_generates` generates have
  /// completed, but never past kMaxLoadSeconds.
  double seconds = 10;
  int64_t min_generates = 1100;
  /// Share of all requests that are update ops (client 0 only, fixed
  /// stride).
  double update_share = 0.04;
  uint64_t seed = 1;
  /// Trace every other request of each client (trace runs only).
  bool trace = false;
};

struct LoadResult {
  std::vector<double> generate_ms;  // Send to full reply, ok replies only.
  std::vector<double> update_ms;
  OverheadSamples overhead;  // Generate latencies (ms) keyed by model.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t edges = 0;        // Edges in ok generate replies.
  int64_t reply_bytes = 0;  // Bytes of ok generate reply frames.
  int64_t updates_ok = 0;
  double wall_s = 0;
  std::vector<std::string> errors;

  /// Adds `other`'s samples and counts (and wall time) to this one.
  void Append(const LoadResult& other);
};

/// Drives the fixture with a closed loop of `clients` connections: each
/// sends its next request only after the previous reply. Models are drawn
/// by the fixture's weights with fresh seeds.
LoadResult RunClosedLoop(const ServeFixture& fixture,
                         const LoadOptions& options);

/// Cumulative server counters summed over models (from a `stats` reply).
struct ServerCounters {
  int64_t requests = 0;
  int64_t loads = 0;
  int64_t evictions = 0;
  int64_t generates = 0;
  double busy_s = 0;
};
tgsim::Result<ServerCounters> QueryCounters(const std::string& socket);

/// Reports a finished loop: the serve end-to-end metrics and the serve.*
/// layer metrics (`before` is the counter snapshot taken just before the
/// loop; the loop must have reached `options.min_generates`), then probes
/// every model: one served generate per model must byte-match
/// LoadArtifact -> Generate -> WriteEdgeList in process.
void ReportServe(const ServeFixture& fixture, const LoadResult& load,
                 const ServerCounters& before, const LoadOptions& options,
                 uint64_t probe_seed, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
