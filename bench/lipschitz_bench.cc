// Microbenchmark for the exact Lipschitz constant generator hot path on
// a GIN encoder: the naive per-node re-encoding loop
// (ExactConstantsReference) vs. ComputeConstants, which runs the fused
// ball-incremental masked-view kernel (nn/gin_inference.h), on one
// thread and on the shared thread pool, on synthetic TU-style graphs of
// N in {16, 64, 256}. The BM_LipschitzBatched* names are kept for
// BENCH_lipschitz.json and CI's filter; they time the fused kernel, not
// block-diagonal batching.
//
// Unless --benchmark_out is given explicitly, results are written to
// BENCH_lipschitz.json (google-benchmark JSON) in the working directory:
//   ./build/bench/lipschitz_bench
// Compare `BM_LipschitzNaive/256` against `BM_LipschitzBatchedParallel/256`
// for the headline speedup (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"
#include "core/lipschitz_generator.h"

namespace sgcl {
namespace {

// TU-style synthetic graph: random spanning tree plus ~n extra edges
// (~2x tree density), one-hot-ish features (same recipe as
// complexity_generator.cc).
Graph MakeBenchGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Graph g(n, 8);
  for (int64_t v = 0; v < n; ++v) {
    g.set_feature(v, rng.UniformInt(8), 1.0f);
    if (v > 0) g.AddUndirectedEdge(v, rng.UniformInt(v));
  }
  for (int64_t e = 0; e < n; ++e) {
    const int64_t a = rng.UniformInt(n), b = rng.UniformInt(n);
    if (a != b) g.AddUndirectedEdge(a, b);
  }
  return g;
}

EncoderConfig BenchEncoderConfig() {
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = 8;
  cfg.hidden_dim = 32;
  cfg.num_layers = 3;
  return cfg;
}

// The reference: one encoder pass per node, single-threaded.
void BM_LipschitzNaive(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t n = state.range(0);
  Rng rng(1);
  GnnEncoder encoder(BenchEncoderConfig(), &rng);
  LipschitzGenerator gen(&encoder, LipschitzMode::kExact);
  Graph g = MakeBenchGraph(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.ExactConstantsReference(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LipschitzNaive)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The fused masked-view kernel, on one thread.
void BM_LipschitzBatched(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t n = state.range(0);
  Rng rng(1);
  GnnEncoder encoder(BenchEncoderConfig(), &rng);
  LipschitzGenerator gen(&encoder, LipschitzMode::kExact);
  Graph g = MakeBenchGraph(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.ComputeConstants(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LipschitzBatched)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The fused kernel on the shared thread pool (SGCL_NUM_THREADS /
// hardware).
void BM_LipschitzBatchedParallel(benchmark::State& state) {
  SetParallelThreads(0);
  const int64_t n = state.range(0);
  Rng rng(1);
  GnnEncoder encoder(BenchEncoderConfig(), &rng);
  LipschitzGenerator gen(&encoder, LipschitzMode::kExact);
  Graph g = MakeBenchGraph(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.ComputeConstants(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LipschitzBatchedParallel)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The fused path with every call sampled into the trace ring: quantifies
// the observability overhead (span records, including the pool chunks'
// spans, plus metrics counters on every stage). The ring is bounded, so
// nothing is cleared between iterations. The acceptance budget is < 3%
// over BM_LipschitzBatchedParallel at N=256.
void BM_LipschitzBatchedParallelTraced(benchmark::State& state) {
  SetParallelThreads(0);
  const int64_t n = state.range(0);
  Rng rng(1);
  GnnEncoder encoder(BenchEncoderConfig(), &rng);
  LipschitzGenerator gen(&encoder, LipschitzMode::kExact);
  Graph g = MakeBenchGraph(n, 2);
  TraceRing& ring = TraceRing::Global();
  ring.SetSampleRate(1.0);
  for (auto _ : state) {
    ScopedTraceContext install(ring.MaybeStartTrace());
    TraceSpan root("bench/compute_constants");
    benchmark::DoNotOptimize(gen.ComputeConstants(g));
  }
  ring.SetSampleRate(0.0);
  ring.Clear();
  state.SetComplexityN(n);
}
BENCHMARK(BM_LipschitzBatchedParallelTraced)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Batch-of-graphs path: the per-epoch shape SgclModel::ComputeLoss hits
// (ComputeConstants over a 16-graph minibatch), parallel across graphs.
void BM_LipschitzMinibatchParallel(benchmark::State& state) {
  SetParallelThreads(0);
  const int64_t n = state.range(0);
  Rng rng(1);
  GnnEncoder encoder(BenchEncoderConfig(), &rng);
  LipschitzGenerator gen(&encoder, LipschitzMode::kExact);
  std::vector<Graph> graphs;
  std::vector<const Graph*> ptrs;
  for (uint64_t i = 0; i < 16; ++i) graphs.push_back(MakeBenchGraph(n, 2 + i));
  for (const Graph& g : graphs) ptrs.push_back(&g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.ComputeConstants(ptrs));
  }
}
BENCHMARK(BM_LipschitzMinibatchParallel)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) {
  // Default to emitting BENCH_lipschitz.json unless the caller passed an
  // explicit --benchmark_out.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_lipschitz.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
