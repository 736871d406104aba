// Micro-benchmarks (google-benchmark) for the hot paths of libdcs:
// CSR construction, difference-graph merge, greedy peel, k-core,
// coordinate-descent initialization, and the full small-graph pipelines.

#include <benchmark/benchmark.h>

#include "util/logging.h"
#include "core/dcs_greedy.h"
#include "core/newsea.h"
#include "core/seacd.h"
#include "densest/peel.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/kcore.h"
#include "util/rng.h"

namespace {

using namespace dcs;

Graph MakeSigned(VertexId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Result<Graph> g = RandomSignedGraph(n, m, 0.6, 0.5, 4.0, &rng);
  DCS_CHECK(g.ok());
  return std::move(g).value();
}

void BM_GraphBuild(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const size_t m = static_cast<size_t>(n) * 8;
  Rng rng(1);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (v >= u) ++v;
    edges.push_back(Edge{u, v, 1.0});
  }
  for (auto _ : state) {
    GraphBuilder builder(n);
    for (const Edge& e : edges) builder.AddEdgeUnchecked(e.u, e.v, e.weight);
    Result<Graph> g = builder.Build();
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(10000);

void BM_DifferenceGraph(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph g1 = MakeSigned(n, n * 6, 2);
  const Graph g2 = MakeSigned(n, n * 6, 3);
  for (auto _ : state) {
    Result<Graph> gd = BuildDifferenceGraph(g1, g2);
    benchmark::DoNotOptimize(gd.value().NumEdges());
  }
}
BENCHMARK(BM_DifferenceGraph)->Arg(1000)->Arg(10000);

void BM_GreedyPeel(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph gd = MakeSigned(n, n * 8, 4);
  for (auto _ : state) {
    PeelResult result = GreedyPeel(gd);
    benchmark::DoNotOptimize(result.density);
  }
}
BENCHMARK(BM_GreedyPeel)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CoreNumbers(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph g = MakeSigned(n, n * 8, 5).PositivePart();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreNumbers(g));
  }
}
BENCHMARK(BM_CoreNumbers)->Arg(1000)->Arg(10000);

void BM_SeacdSingleInit(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph gd_plus = MakeSigned(n, n * 8, 6).PositivePart();
  AffinityState affinity_state(gd_plus);
  VertexId seed = 0;
  for (auto _ : state) {
    affinity_state.ResetToVertex(seed);
    seed = (seed + 1) % n;
    SeacdRunStats stats = RunSeacdInPlace(&affinity_state);
    benchmark::DoNotOptimize(stats.affinity);
  }
}
BENCHMARK(BM_SeacdSingleInit)->Arg(1000)->Arg(10000);

void BM_DcsGreedyPipeline(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph gd = MakeSigned(n, n * 8, 7);
  for (auto _ : state) {
    Result<DcsadResult> result = RunDcsGreedy(gd);
    benchmark::DoNotOptimize(result.value().density);
  }
}
BENCHMARK(BM_DcsGreedyPipeline)->Arg(1000)->Arg(4000);

void BM_NewSeaPipeline(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  const Graph gd_plus = MakeSigned(n, n * 8, 8).PositivePart();
  for (auto _ : state) {
    Result<DcsgaResult> result = RunNewSea(gd_plus);
    benchmark::DoNotOptimize(result.value().affinity);
  }
}
BENCHMARK(BM_NewSeaPipeline)->Arg(1000)->Arg(4000);

}  // namespace
