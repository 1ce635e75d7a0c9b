// Engineering microbenchmarks (google-benchmark): the kernels that
// dominate TGAE's cost profile — dense matmul, segment softmax, ego-graph
// sampling, bipartite stack construction, snapshot accumulation, and the
// temporal motif census. Not a paper table; used for the design-choice
// ablations called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "config/param_map.h"
#include "core/tgat_encoder.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "graph/bipartite.h"
#include "graph/ego_sampler.h"
#include "metrics/graph_stats.h"
#include "metrics/motifs.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/simd.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace {

using namespace tgsim;

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(rng, n, n);
  nn::Tensor b = nn::Tensor::Randn(rng, n, n);
  for (auto _ : state) benchmark::DoNotOptimize(a.MatMul(b));
  state.SetComplexityN(n);
  state.counters["flops"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatMul)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity();

/// MatMul speedup curve: Args are {n, threads}. The 512x512 row at 8
/// threads vs 1 thread is the ISSUE acceptance measurement.
void BM_MatMulThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  parallel::ThreadPool::SetGlobalThreads(threads);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(rng, n, n);
  nn::Tensor b = nn::Tensor::Randn(rng, n, n);
  for (auto _ : state) benchmark::DoNotOptimize(a.MatMul(b));
  parallel::ThreadPool::SetGlobalThreads(
      parallel::ThreadPool::DefaultNumThreads());
  state.counters["flops"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({1024, 8})
    ->UseRealTime();

/// Dispatch overhead of an almost-empty ParallelFor region: how small a
/// loop can be before pool dispatch stops paying for itself.
void BM_ParallelForOverhead(benchmark::State& state) {
  const int64_t items = state.range(0);
  const int64_t grain = state.range(1);
  std::vector<double> out(static_cast<size_t>(items), 0.0);
  for (auto _ : state) {
    parallel::ParallelFor(0, items, grain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i)
        out[static_cast<size_t>(i)] = static_cast<double>(i) * 1.0000001;
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_ParallelForOverhead)
    ->Args({1 << 10, 1 << 15})  // Single chunk: inline, no dispatch.
    ->Args({1 << 15, 1 << 12})
    ->Args({1 << 18, 1 << 15})
    ->Args({1 << 21, 1 << 15})
    ->UseRealTime();

/// Generation-decode cost, dense vs sparse (the PR's sparse-decoder
/// acceptance measurement): one chunk of `rows` decoded rows against an
/// n-node decoder weight. Each row's support holds 8 columns drawn from a
/// hub pool of n/10 nodes, mirroring the skew of real temporal
/// neighborhoods; the sparse path scores only the support-union columns
/// (GatherCols + narrow matmul), the dense path the full n-wide row.
/// Both paths finish with the per-row support normalization Generate uses.
struct DecodeFixture {
  nn::Var rows_h, w, b;
  std::vector<std::vector<int>> supports;
  std::vector<int> candidates;
  std::vector<int> slot;  // node id -> candidate column.
};

DecodeFixture MakeDecodeFixture(int n, int rows) {
  const int d = 32;
  const int per_row = 8;
  const int pool = std::max(per_row + 1, n / 10);
  Rng rng(7);
  DecodeFixture f;
  f.rows_h = nn::Var::Constant(nn::Tensor::Randn(rng, rows, d));
  f.w = nn::Var::Param(nn::Tensor::Randn(rng, d, n));
  f.b = nn::Var::Param(nn::Tensor::Randn(rng, 1, n));
  f.slot.assign(static_cast<size_t>(n), -1);
  f.supports.resize(static_cast<size_t>(rows));
  for (auto& support : f.supports) {
    while (static_cast<int>(support.size()) < per_row) {
      int v = static_cast<int>(rng.UniformInt(pool));
      if (std::find(support.begin(), support.end(), v) != support.end())
        continue;
      support.push_back(v);
      if (f.slot[static_cast<size_t>(v)] < 0) {
        f.slot[static_cast<size_t>(v)] =
            static_cast<int>(f.candidates.size());
        f.candidates.push_back(v);
      }
    }
  }
  return f;
}

/// Support-normalized categorical weights of one row (what Generate draws
/// from); `col_of` maps a support node to its logits column.
template <typename ColOf>
double SupportWeightChecksum(const nn::Tensor& logits, int row,
                             const std::vector<int>& support,
                             const ColOf& col_of) {
  double m = -1e300;
  for (int v : support) m = std::max(m, logits.at(row, col_of(v)));
  double acc = 0.0;
  for (int v : support) acc += std::exp(logits.at(row, col_of(v)) - m);
  return acc;
}

void BM_DecodeDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  DecodeFixture f = MakeDecodeFixture(n, rows);
  for (auto _ : state) {
    nn::Var logits = nn::Add(nn::MatMul(f.rows_h, f.w), f.b);
    double acc = 0.0;
    for (int r = 0; r < rows; ++r)
      acc += SupportWeightChecksum(logits.value(), r,
                                   f.supports[static_cast<size_t>(r)],
                                   [](int v) { return v; });
    benchmark::DoNotOptimize(acc);
  }
  state.counters["cols"] = static_cast<double>(n);
}
BENCHMARK(BM_DecodeDense)->Args({2000, 64})->Args({4000, 64})
    ->Args({2000, 256});

void BM_DecodeSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  DecodeFixture f = MakeDecodeFixture(n, rows);
  for (auto _ : state) {
    nn::Var w_cols = nn::GatherCols(f.w, f.candidates);
    nn::Var logits = nn::Add(nn::MatMul(f.rows_h, w_cols),
                             nn::GatherCols(f.b, f.candidates));
    double acc = 0.0;
    for (int r = 0; r < rows; ++r)
      acc += SupportWeightChecksum(
          logits.value(), r, f.supports[static_cast<size_t>(r)],
          [&](int v) { return f.slot[static_cast<size_t>(v)]; });
    benchmark::DoNotOptimize(acc);
  }
  state.counters["cols"] = static_cast<double>(f.candidates.size());
}
BENCHMARK(BM_DecodeSparse)->Args({2000, 64})->Args({4000, 64})
    ->Args({2000, 256});

/// Dispatched vs scalar-reference row kernels. The dispatched variants
/// are registered from main() only when a SIMD backend is active, so the
/// BENCH gate ratios (dispatched / ScalarRef >= 1.5x) are only produced
/// on hosts where the SIMD tables actually run.
void BM_KernelRowMax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  nn::Tensor x = nn::Tensor::Randn(rng, 1, n);
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::kernels::RowMax(x.data(), n));
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_KernelRowMaxScalarRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  nn::Tensor x = nn::Tensor::Randn(rng, 1, n);
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::kernels::scalar::RowMax(x.data(), n));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelRowMaxScalarRef)->Arg(4096);

void BM_KernelExpRowSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  nn::Tensor x = nn::Tensor::Randn(rng, 1, n);
  std::vector<nn::Scalar> dst(static_cast<size_t>(n));
  const nn::Scalar m = nn::kernels::RowMax(x.data(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::kernels::ExpRowSum(x.data(), m, dst.data(), n));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_KernelExpRowSumScalarRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  nn::Tensor x = nn::Tensor::Randn(rng, 1, n);
  std::vector<nn::Scalar> dst(static_cast<size_t>(n));
  const nn::Scalar m = nn::kernels::scalar::RowMax(x.data(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::kernels::scalar::ExpRowSum(x.data(), m, dst.data(), n));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelExpRowSumScalarRef)->Arg(4096);

/// The untied-decoder full-row decode: 64 decoded rows against an n-node
/// decoder. StridedRef is the old inner product walking w.at(k, v) down
/// column v (stride-n loads); Gemm is DenseLogitsRow's path, one 1-row
/// nn::Gemm per decoded row plus the bias.
void BM_DecodeUntiedStridedRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = 32;
  const int rows = 64;
  Rng rng(13);
  nn::Tensor w = nn::Tensor::Randn(rng, d, n);
  nn::Tensor h = nn::Tensor::Randn(rng, rows, d);
  nn::Tensor bias = nn::Tensor::Randn(rng, 1, n);
  std::vector<nn::Scalar> out(static_cast<size_t>(n));
  for (auto _ : state) {
    for (int r = 0; r < rows; ++r) {
      const nn::Scalar* hr = h.row(r);
      for (int v = 0; v < n; ++v) {
        nn::Scalar acc = 0.0;
        for (int k = 0; k < d; ++k) acc += hr[k] * w.at(k, v);
        out[static_cast<size_t>(v)] = acc + bias.at(0, v);
      }
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * n);
}
BENCHMARK(BM_DecodeUntiedStridedRef)->Arg(2048)->Arg(8192);

void BM_DecodeUntiedGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = 32;
  const int rows = 64;
  Rng rng(13);
  nn::Tensor w = nn::Tensor::Randn(rng, d, n);
  nn::Tensor h = nn::Tensor::Randn(rng, rows, d);
  nn::Tensor bias = nn::Tensor::Randn(rng, 1, n);
  nn::Tensor hr(1, d);
  nn::Tensor out(1, n);
  for (auto _ : state) {
    for (int r = 0; r < rows; ++r) {
      std::copy(h.row(r), h.row(r) + d, hr.data());
      nn::Gemm(hr, nn::Trans::kNo, w, nn::Trans::kNo, out,
               nn::GemmMode::kAssign);
      nn::kernels::AddRow(out.data(), bias.row(0), n);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * n);
}

void BM_SegmentSoftmax(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::Var scores = nn::Var::Param(nn::Tensor::Randn(rng, edges, 1));
  std::vector<int> seg(static_cast<size_t>(edges));
  const int num_seg = edges / 8 + 1;
  for (int i = 0; i < edges; ++i)
    seg[static_cast<size_t>(i)] = static_cast<int>(rng.UniformInt(num_seg));
  for (auto _ : state) {
    nn::Var out = nn::SegmentSoftmax(scores, seg, num_seg);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EgoGraphSampling(benchmark::State& state) {
  const int threshold = static_cast<int>(state.range(0));
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.2, 5);
  graphs::EgoGraphSampler sampler(
      &g, {.radius = 2, .neighbor_threshold = threshold, .time_window = 2});
  graphs::InitialNodeSampler initial(&g, 2);
  Rng rng(3);
  std::vector<graphs::TemporalNodeRef> centers = initial.Sample(64, rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.Sample(centers[i++ % centers.size()], rng));
  }
}
BENCHMARK(BM_EgoGraphSampling)->Arg(1)->Arg(5)->Arg(10)->Arg(0);

void BM_BipartiteStackBuild(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.2, 5);
  graphs::EgoGraphSampler sampler(
      &g, {.radius = 2, .neighbor_threshold = 10, .time_window = 2});
  graphs::InitialNodeSampler initial(&g, 2);
  Rng rng(4);
  std::vector<graphs::EgoGraph> egos;
  for (const auto& c : initial.Sample(batch, rng))
    egos.push_back(sampler.Sample(c, rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(graphs::BuildBipartiteStack(egos, 2));
}
BENCHMARK(BM_BipartiteStackBuild)->Arg(8)->Arg(32)->Arg(128);

void BM_TgatLayerForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.2, 5);
  graphs::EgoGraphSampler sampler(
      &g, {.radius = 2, .neighbor_threshold = 10, .time_window = 2});
  graphs::InitialNodeSampler initial(&g, 2);
  Rng rng(5);
  std::vector<graphs::EgoGraph> egos;
  for (const auto& c : initial.Sample(batch, rng))
    egos.push_back(sampler.Sample(c, rng));
  graphs::BipartiteStack stack = graphs::BuildBipartiteStack(egos, 2);
  core::TgatEncoder encoder(rng, 32, 32, 2, 2);
  nn::Var feats = nn::Var::Constant(nn::Tensor::Randn(
      rng, static_cast<int>(stack.layer_nodes[2].size()), 32));
  for (auto _ : state) {
    nn::Var h = encoder.Forward(stack, feats);
    benchmark::DoNotOptimize(h.value().data());
  }
}
BENCHMARK(BM_TgatLayerForward)->Arg(8)->Arg(32)->Arg(128);

void BM_SnapshotAccumulation(benchmark::State& state) {
  graphs::TemporalGraph g = datasets::MakeMimicByName(
      "DBLP", 0.1 * state.range(0), 6);
  for (auto _ : state)
    benchmark::DoNotOptimize(g.SnapshotUpTo(g.num_timestamps() - 1));
}
BENCHMARK(BM_SnapshotAccumulation)->Arg(1)->Arg(2)->Arg(4);

void BM_GraphStats(benchmark::State& state) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.3, 7);
  graphs::StaticGraph snap = g.SnapshotUpTo(g.num_timestamps() - 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(metrics::ComputeAllStats(snap));
}
BENCHMARK(BM_GraphStats);

void BM_MotifCensus(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.1, 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        metrics::CountTemporalMotifs(g, delta, 500000));
}
BENCHMARK(BM_MotifCensus)->Arg(1)->Arg(2)->Arg(4);

/// Artifact save+load round trip of a fitted TGAE at mimic scale
/// state.range(0)/100: the fixed cost of the fit-once/serve-many path
/// (eval::SaveArtifact + eval::LoadArtifact through /tmp). A loaded model
/// replaces a full re-Fit, so this latency is what a serving process pays
/// instead of training.
void BM_ArtifactSaveLoad(benchmark::State& state) {
  const double scale = 0.01 * static_cast<double>(state.range(0));
  graphs::TemporalGraph observed =
      datasets::MakeMimicByName("DBLP", scale, 4);
  config::ParamMap params;
  params.Override("preset", "fast");
  params.Override("epochs", "1");
  auto gen = std::move(eval::MakeGenerator("TGAE", params)).value();
  Rng rng(9);
  gen->Fit(observed, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tgsim_bench_artifact.tgsim")
          .string();
  int64_t bytes = 0;
  for (auto _ : state) {
    Status saved = eval::SaveArtifact(*gen, "TGAE", params, path);
    if (!saved.ok()) {
      state.SkipWithError(saved.ToString().c_str());
      break;
    }
    auto loaded = eval::LoadArtifact(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded.value().generator);
    bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  }
  std::filesystem::remove(path);
  state.counters["artifact_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_ArtifactSaveLoad)->Arg(3)->Arg(6);

/// Registers the dispatched-kernel benches only when a SIMD table is
/// active: under TGSIM_FORCE_SCALAR (build or env) the dispatched and
/// ScalarRef variants are the same code, so emitting the pair would feed
/// the >=1.5x CI ratio gates a guaranteed-failing ~1.0 ratio.
void RegisterSimdKernelBenches() {
  if (nn::kernels::ActiveBackend() == nn::kernels::Backend::kScalar) return;
  benchmark::RegisterBenchmark("BM_KernelRowMax", BM_KernelRowMax)
      ->Arg(4096);
  benchmark::RegisterBenchmark("BM_KernelExpRowSum", BM_KernelExpRowSum)
      ->Arg(4096);
  benchmark::RegisterBenchmark("BM_DecodeUntiedGemm", BM_DecodeUntiedGemm)
      ->Arg(2048)
      ->Arg(8192);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterSimdKernelBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
