#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/tgae.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "graph/ego_sampler.h"
#include "metrics/degree_mmd.h"
#include "serve_load.h"
#include "trace.h"

namespace perfbench {

using tgsim::Result;
using tgsim::Rng;
using tgsim::Status;
using tgsim::graphs::TemporalGraph;

namespace {

// Set-up cannot be measured past a failure: report it and end the run
// without a result line.
void OrDie(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> result, const char* what) {
  OrDie(result.status(), what);
  return std::move(result).value();
}

// Runs `teardown` then `setup` five times, and more (up to forty) while the
// repetitions have taken under six seconds, so that a short set-up is
// sampled often enough for a steady median (once in smoke runs): the first
// repetitions of a process run slower while its heap is still growing, and
// a shared host runs faster and slower in phases of about a second. Only
// `setup` is timed, traced as a "setup" root. Returns the median set-up
// wall time. After each repetition its writes (artifacts of up to 67 MB)
// are flushed, untimed, so their writeback does not stall the next
// repetition or the measured loop.
template <typename Teardown, typename Setup>
double RepeatSetup(const RunConfig& cfg, Teardown&& teardown, Setup&& setup) {
  std::vector<double> walls;
  const int min_reps = cfg.smoke ? 1 : 5, max_reps = cfg.smoke ? 1 : 40;
  double total_s = 0;
  for (int rep = 0; rep < min_reps || (rep < max_reps && total_s < 6.0);
       ++rep) {
    teardown();
    SetTracing(cfg.trace);
    const double start = Now();
    {
      Span root("setup");
      setup();
    }
    walls.push_back(Now() - start);
    total_s += walls.back();
    SetTracing(false);
    ::sync();
  }
  return Median(std::move(walls));
}

TemporalGraph MakeMimic(const char* dataset, double scale, uint64_t seed) {
  Span span("datasets.make_mimic");
  return tgsim::datasets::MakeMimicByName(dataset, scale, seed);
}

void ReportTraceOverhead(const OverheadSamples& times, Report& report) {
  report.Set("bench.trace_overhead_share", times.Share(), "share");
}

// Replays one TGAE fit's worth of initial-node and ego-graph sampling
// (epochs x batch_centers draws) with `tgae`'s configuration on `graph`.
void ReplayEgoSampling(const TemporalGraph& graph, const ModelSpec& tgae,
                       uint64_t seed, Report& report) {
  config::ParamMap overrides;
  for (const std::string& key : tgae.params.Keys())
    if (key != "preset") OrDie(overrides.Set(key, *tgae.params.FindRaw(key)),
                               "TGAE parameters");
  tgsim::core::TgaeConfig c;
  OrDie(c.ApplyParams(overrides), "TGAE parameters");
  tgsim::graphs::EgoGraphConfig ego_cfg;
  ego_cfg.radius = c.radius;
  ego_cfg.neighbor_threshold = c.neighbor_threshold;
  ego_cfg.time_window = c.time_window;
  const tgsim::graphs::InitialNodeSampler centers(
      &graph, c.time_window, /*uniform=*/!c.degree_weighted_sampling);
  const tgsim::graphs::EgoGraphSampler egos(&graph, ego_cfg);

  SetTracing(true);
  Span root("replay");
  Span span("graph.ego_sample");
  Rng rng(seed);
  int64_t nodes = 0;
  const double start = Now();
  for (int epoch = 0; epoch < c.epochs; ++epoch)
    for (const auto& center : centers.Sample(c.batch_centers, rng))
      nodes += egos.Sample(center, rng).size();
  report.Set("graph.ego_sample_s", Now() - start, "s");
  report.Set("graph.ego_nodes", static_cast<double>(nodes), "count");
  span.Arg("nodes", static_cast<double>(nodes));
}

void CheckTgaeOutput(const TemporalGraph& observed,
                     const TemporalGraph& generated, int64_t expected_edges,
                     Report& report) {
  if (generated.num_edges() != expected_edges ||
      generated.num_nodes() != observed.num_nodes() ||
      generated.num_timestamps() != observed.num_timestamps())
    report.CheckFailed("TGAE output does not have the observed shape: " +
                       std::to_string(generated.num_edges()) + " edges, " +
                       std::to_string(expected_edges) + " expected");
  const double mmd = tgsim::metrics::DegreeMmd(observed, generated);
  if (!std::isfinite(mmd) || mmd < 0)
    report.CheckFailed("TGAE degree MMD is not a finite distance");
  report.Set("metrics.gen_degree_mmd", mmd, "mmd");
}

// Serve stage of the workloads that do not stress serving (README.md,
// "serve canary"): DYMOND takes 98% of the generates and TIGGER 2%, so the
// p99 lands mid-way through TIGGER's walks (a real, heavier request) rather
// than on scheduler noise, which sub-10 ms requests alone would put there,
// or on the steep edge of a latency cluster, where it would jump. Updates
// go to TIGGER, whose ~30 ms update is likewise mostly work, not noise.
//
// The generates run in chunks between the measured iterations, so they
// sample the whole run: on a shared host the speed drifts in phases of
// seconds (TIGGER's update takes 28 ms in one, 45 ms in the next), and one
// block of samples would report whichever phase it fell in.
class Canary {
 public:
  explicit Canary(const RunConfig& cfg) : cfg_(cfg) {}

  void Start() {
    ServeSetup setup;
    setup.prefix = "canary-";
    setup.models = {Spec("DYMOND", {}), Spec("TIGGER", {"epochs=1"})};
    setup.weights = {0.98, 0.02};
    setup.update_cycle = {1};
    setup.workers = 2;
    fixture_ = OrDie(
        ServeFixture::Start(setup,
                            MakeMimic("MSG", cfg_.smoke ? 0.05 : 0.2, cfg_.seed),
                            cfg_.seed, nullptr),
        "canary set-up");
  }
  void Stop() { fixture_.reset(); }

  /// Runs one chunk of the closed loop unless the canary has its samples;
  /// returns the chunk's wall time.
  double RunChunk() {
    if (static_cast<int64_t>(load_.generate_ms.size()) >= Total()) return 0;
    if (!before_)
      before_ = OrDie(QueryCounters(fixture_->socket()), "canary stats");
    LoadOptions options = Options();
    options.min_generates = cfg_.smoke ? 50 : 400;
    options.seed = cfg_.seed * 1000 + static_cast<uint64_t>(chunks_++);
    const double start = Now();
    load_.Append(RunClosedLoop(*fixture_, options));
    ::sync();  // Flush the updates' artifact rewrites before measuring on.
    return Now() - start;
  }

  /// Runs chunks up to the canary's sample count, reports and stops.
  void Finish(Report& report) {
    while (RunChunk() > 0) {
    }
    LoadOptions options = Options();
    options.min_generates = Total();
    ReportServe(*fixture_, load_, *before_, options, cfg_.seed + 17, report);
    report.Note("serve canary: " + std::to_string(chunks_) + " chunks");
    Stop();
  }

 private:
  int64_t Total() const { return cfg_.smoke ? 200 : 4000; }
  LoadOptions Options() const {
    LoadOptions options;
    options.clients = 2;
    options.seconds = 0;  // Count-bound: stop at min_generates.
    // Every 5th request of client 0 is an update, a dozen or so per chunk.
    options.update_share = 0.1;
    options.trace = cfg_.trace;
    return options;
  }

  const RunConfig& cfg_;
  std::unique_ptr<ServeFixture> fixture_;
  std::optional<ServerCounters> before_;
  LoadResult load_;
  int chunks_ = 0;
};

// TGAE, TIGGER, VGAE and DYMOND at preset=paper, apart from the epoch
// counts given (0 keeps the paper's).
std::vector<ModelSpec> MixSpecs(int tgae_epochs, int tigger_epochs,
                                int vgae_epochs) {
  auto tokens = [](int epochs) {
    std::vector<std::string> t = {"preset=paper"};
    if (epochs > 0) t.push_back("epochs=" + std::to_string(epochs));
    return t;
  };
  std::vector<ModelSpec> specs;
  specs.push_back(Spec("TGAE", tokens(tgae_epochs)));
  specs.push_back(Spec("TIGGER", tokens(tigger_epochs)));
  specs.push_back(Spec("VGAE", tokens(vgae_epochs)));
  specs.push_back(Spec("DYMOND", {}));
  return specs;
}

// Closed-loop clients of serve-mixed (and daemon workers): at most nproc.
int ServeClients(const RunConfig& cfg) { return std::min(4, cfg.nproc); }

}  // namespace

void RunFitTgae(const RunConfig& cfg, Report& report) {
  const ModelSpec tgae =
      cfg.smoke ? Spec("TGAE", {"preset=paper", "epochs=2"})
                : Spec("TGAE", {"preset=paper"});
  const double scale = cfg.smoke ? 0.05 : 0.1;
  // Four mimics drawn from the seed, fitted in turn: TGAE's fit cost moves
  // with the sampled graph by about 10%, and averaging over four inputs
  // keeps one unlucky draw from setting a run's figure.
  const int inputs = cfg.smoke ? 2 : 4;
  auto path = [](int k) { return "observed-" + std::to_string(k) + ".txt"; };
  std::vector<TemporalGraph> observed;
  Canary canary(cfg);
  const double setup_s = RepeatSetup(
      cfg, [&] { canary.Stop(); observed.clear(); },
      [&] {
        for (int k = 0; k < inputs; ++k) {
          observed.push_back(MakeMimic("MSG", scale, cfg.seed * 100 + k));
          Span span("datasets.save");
          OrDie(tgsim::datasets::SaveEdgeList(observed.back(), path(k)),
                "writing the observed edge list");
        }
        canary.Start();
      });

  // Per input: iteration wall times and the first output checksum. Every
  // iteration's model generates twice more after the timed part, checking
  // the bytes repeat and sampling the generate rate three times.
  std::vector<std::vector<double>> iteration_s(inputs);
  std::vector<std::vector<double>> edges_per_s(inputs);
  int generates = 0;
  std::vector<uint64_t> checksums(inputs);
  OverheadSamples times;
  const double start = Now();
  double canary_s = 0;  // Canary chunks do not count against the loop time.
  int iterations = 0;
  // A traced run traces every other iteration, shifted by one on each pass
  // over the inputs, so every input is fitted both traced and untraced in
  // its first two passes.
  const int min_iterations = std::max(3, inputs) * (cfg.trace ? 2 : 1);
  for (int i = 0;
       i < min_iterations || Now() - start - canary_s < cfg.seconds; ++i) {
    const int k = i % inputs;
    const bool traced = cfg.trace && (i + i / inputs) % 2 == 0;
    SetTracing(traced);
    std::unique_ptr<tgsim::baselines::TemporalGraphGenerator> model;
    auto generate = [&]() -> Result<TemporalGraph> {
      const double g0 = Now();
      TemporalGraph out = GenerateGraph(*model, "TGAE", cfg.seed);
      Status wrote = WriteGraph(out, "generated.txt");
      if (!wrote.ok()) return wrote;
      edges_per_s[k].push_back(static_cast<double>(out.num_edges()) /
                               (Now() - g0));
      ++generates;
      return out;
    };
    const double t0 = Now();
    Result<TemporalGraph> generated = [&]() -> Result<TemporalGraph> {
      Span root("iteration");
      Result<TemporalGraph> graph = LoadGraph(path(k));
      if (!graph.ok()) return graph.status();
      Rng fit_rng = tgsim::eval::MakeSeedStreams(cfg.seed).fit;
      auto gen = FitModel(tgae, graph.value(), fit_rng);
      if (!gen.ok()) return gen.status();
      model = std::move(gen).value();
      Status saved = SaveModel(*model, tgae, "tgae.tgsim");
      if (!saved.ok()) return saved;
      return generate();
    }();
    const double wall = Now() - t0;
    report.Op(generated.ok(), generated.status().ToString());
    if (!generated.ok()) break;
    ++iterations;
    times.Add(k, traced, wall);
    iteration_s[k].push_back(wall);
    if (i < inputs)
      CheckTgaeOutput(observed[k], generated.value(), observed[k].num_edges(),
                      report);
    {
      Span check("check");
      for (int repeat = 0; repeat < 3; ++repeat) {
        if (repeat > 0) {
          Result<TemporalGraph> again = generate();
          report.Op(again.ok(), again.status().ToString());
          if (!again.ok()) break;
        }
        const uint64_t checksum = Fnv1a(ReadFile("generated.txt"));
        if (i < inputs && repeat == 0) {
          checksums[k] = checksum;
        } else if (checksum != checksums[k]) {
          report.CheckFailed("TGAE edge list changed between generates of "
                             "one input and seed");
        }
      }
    }
    SetTracing(false);
    canary_s += canary.RunChunk();
  }
  canary.Finish(report);
  // fit_s and generate_edges_per_s: mean over the inputs of each input's
  // median (a median over all samples would jump between inputs).
  double fit_s = 0, rate = 0;
  for (int k = 0; k < inputs; ++k) {
    fit_s += Median(iteration_s[k]) / inputs;
    rate += Median(edges_per_s[k]) / inputs;
  }
  report.Note("fit_s: " + std::to_string(iterations) + " iterations over " +
              std::to_string(inputs) + " inputs; generate_edges_per_s: " +
              std::to_string(generates) + " generates");
  report.Set("setup_s", setup_s, "s");
  report.Set("fit_s", fit_s, "s");
  report.Set("generate_edges_per_s", rate, "edges/s");
  ReportTraceOverhead(times, report);

  if (cfg.trace) ReplayEgoSampling(observed[0], tgae, cfg.seed, report);
}

void RunGenerateMix(const RunConfig& cfg, Report& report) {
  // Fewer training epochs than preset=paper: generation cost does not
  // depend on them, and set-up is repeated. TGAE gets one epoch because its
  // fit cost on this graph swings about 3x with the seed's ego-graphs,
  // which would swamp the summed set-up fit_s.
  const std::vector<ModelSpec> specs =
      cfg.smoke ? MixSpecs(1, 1, 1) : MixSpecs(1, 1, 2);
  std::optional<TemporalGraph> observed;
  Canary canary(cfg);
  std::vector<double> fit_s;  // Summed fit wall of the four models per rep.
  const double setup_s = RepeatSetup(
      cfg, [&] { canary.Stop(); },
      [&] {
        observed = cfg.smoke ? MakeMimic("MSG", 0.1, cfg.seed)
                             : MakeMimic("BITCOIN-O", 0.5, cfg.seed);
        fit_s.push_back(0);
        for (const ModelSpec& spec : specs) {
          Rng rng = tgsim::eval::MakeSeedStreams(cfg.seed).fit;
          double model_fit_s = 0;
          auto gen =
              OrDie(FitModel(spec, *observed, rng, &model_fit_s), "fit");
          fit_s.back() += model_fit_s;
          OrDie(SaveModel(*gen, spec, spec.method + ".tgsim"), "save");
        }
        canary.Start();
      });

  // Round i generates every model with seed base + i and writes it to
  // "<method>.txt"; round 0's checksums are re-derived after the loop.
  const uint64_t base = cfg.seed * 1000;
  std::vector<uint64_t> round0(specs.size());
  std::vector<double> edges_per_s;
  OverheadSamples times;
  const double start = Now();
  double canary_s = 0;  // Canary chunks do not count against the loop time.
  for (int i = 0; i < 3 || Now() - start - canary_s < cfg.seconds; ++i) {
    const bool traced = cfg.trace && i % 2 == 0;
    SetTracing(traced);
    const double t0 = Now();
    int64_t edges = 0;
    Status status = [&]() -> Status {
      Span root("iteration");
      for (const ModelSpec& spec : specs) {
        Result<tgsim::eval::LoadedArtifact> model =
            LoadModel(spec.method + ".tgsim");
        if (!model.ok()) return model.status();
        TemporalGraph out =
            GenerateGraph(*model.value().generator, spec.method, base + i);
        if (out.num_edges() != observed->num_edges())
          return Status::Internal(spec.method + " missed the edge budget");
        edges += out.num_edges();
        Status wrote = WriteGraph(out, spec.method + ".txt");
        if (!wrote.ok()) return wrote;
      }
      return Status::Ok();
    }();
    const double wall = Now() - t0;
    SetTracing(false);
    report.Op(status.ok(), status.ToString());
    if (!status.ok()) break;
    times.Add(0, traced, wall);
    edges_per_s.push_back(static_cast<double>(edges) / wall);
    if (i == 0)
      for (size_t m = 0; m < specs.size(); ++m)
        round0[m] = Fnv1a(ReadFile(specs[m].method + ".txt"));
    canary_s += canary.RunChunk();
  }
  canary.Finish(report);

  // Determinism check: regenerating round 0 reproduces its bytes.
  SetTracing(cfg.trace);
  {
    Span root("check");
    for (size_t m = 0; m < specs.size(); ++m) {
      auto model = OrDie(LoadModel(specs[m].method + ".tgsim"), "load");
      TemporalGraph out =
          GenerateGraph(*model.generator, specs[m].method, base);
      OrDie(WriteGraph(out, specs[m].method + ".txt"), "write");
      report.Op(true);
      if (Fnv1a(ReadFile(specs[m].method + ".txt")) != round0[m])
        report.CheckFailed(specs[m].method +
                           " output changed between two generates of one seed");
      if (specs[m].method == "TGAE")
        CheckTgaeOutput(*observed, out, observed->num_edges(), report);
    }
  }
  SetTracing(false);
  report.Note("generate_edges_per_s: " + std::to_string(edges_per_s.size()) +
              " rounds");
  report.Set("setup_s", setup_s, "s");
  report.Set("fit_s", Median(fit_s), "s");
  report.Set("generate_edges_per_s", Median(edges_per_s), "edges/s");
  ReportTraceOverhead(times, report);

  if (cfg.trace) ReplayEgoSampling(*observed, specs[0], cfg.seed, report);
}

void RunServeMixed(const RunConfig& cfg, Report& report) {
  // Zipf (s = 1) request shares by rank VGAE, DYMOND, TIGGER, TGAE; TGAE and
  // TIGGER cannot both be resident, so they evict each other. Sorted by
  // latency, DYMOND (~1 ms) takes the first 24% and VGAE (~5 ms) the next
  // 48%, so the p50 lands mid-way through VGAE's cluster and not on the
  // jump between two clusters, where a shift of a percent would move it.
  ServeSetup setup;
  setup.prefix = "";
  // TGAE fits one epoch: its fit time swings with the sampled ego-graphs,
  // and neither its serve cost nor its cache charge depends on epochs.
  setup.models = cfg.smoke ? MixSpecs(1, 1, 1) : MixSpecs(1, 3, 10);
  setup.weights = {1.0 / 4, 1.0 / 3, 1.0, 1.0 / 2};
  // Updates: TIGGER x3, DYMOND x2. DYMOND's (~1 ms) fill the first 40% of
  // the sorted update latencies, so the p50 lands inside TIGGER's faster
  // update cluster rather than on the jump to its slower one. Updates are
  // the default 3.6% of requests (every 7th of client 0): at 2% an 18 s run
  // holds about 30 TIGGER updates, and their p50 spread 0.25 over ten seeds.
  setup.update_cycle = {1, 3, 1, 3, 1};
  setup.evict_pair = true;
  setup.workers = ServeClients(cfg);
  const double scale = cfg.smoke ? 0.05 : 0.1;

  std::optional<TemporalGraph> observed;
  std::unique_ptr<ServeFixture> fixture;
  std::vector<double> fit_s;  // Summed fit wall of the four models per rep.
  const double setup_s = RepeatSetup(
      cfg, [&] { fixture.reset(); },
      [&] {
        observed = MakeMimic("MSG", scale, cfg.seed);
        fit_s.push_back(0);
        fixture = OrDie(
            ServeFixture::Start(setup, *observed, cfg.seed, &fit_s.back()),
            "serve set-up");
      });

  // Set-up fits four models in this process, which a serving daemon that
  // loads artifacts would not. The heap those fits leave free stays
  // resident in amounts that vary from run to run by up to 15 MiB (it
  // depends on where the last long-lived block landed), so it is handed
  // back before serving: peak_rss_mib is then the larger of the set-up's
  // own peak and the serving footprint, not leftovers plus serving.
  malloc_trim(0);
  report.Note("peak RSS after set-up: " +
              std::to_string(Rusage::Take().maxrss_kib / 1024) + " MiB");
  LoadOptions options;
  options.clients = ServeClients(cfg);
  options.seconds = cfg.seconds;
  options.min_generates = cfg.smoke ? 200 : 1100;
  options.seed = cfg.seed;
  options.trace = cfg.trace;
  const ServerCounters before =
      OrDie(QueryCounters(fixture->socket()), "serve stats");
  const LoadResult load = RunClosedLoop(*fixture, options);
  ReportServe(*fixture, load, before, options, cfg.seed + 17, report);

  // TGAE is never updated, so its output keeps the fitted edge budget.
  SetTracing(cfg.trace);
  {
    Span root("check");
    auto model = OrDie(LoadModel(fixture->models()[0].path), "load");
    TemporalGraph out = GenerateGraph(*model.generator, "TGAE", cfg.seed);
    CheckTgaeOutput(*observed, out,
                    observed->num_edges() - fixture->delta_edges(), report);
  }
  SetTracing(false);
  report.Set("setup_s", setup_s, "s");
  report.Set("fit_s", Median(fit_s), "s");
  report.Set("generate_edges_per_s",
             static_cast<double>(load.edges) / load.wall_s, "edges/s");
  ReportTraceOverhead(load.overhead, report);
  if (cfg.trace) ReplayEgoSampling(*observed, setup.models[0], cfg.seed, report);
}

}  // namespace perfbench
