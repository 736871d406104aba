// Ablation — how much of NewSEA's speedup comes from each ingredient of the
// §V-D smart initialization:
//   (a) full: μ-descending order + the μ_u ≤ f(best) early stop (NewSEA),
//   (b) order only: μ-descending order, no early stop (all seeds run),
//   (c) stop only: arbitrary (id) order with the early-stop test,
//   (d) none: all seeds, id order (SEACD+Refine).
// Reported: initializations actually run and wall time; all four must find
// the same best affinity (the pruning is lossless in practice, §VI-D).

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "core/newsea.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace dcs;
using namespace dcs::bench;

struct VariantResult {
  double affinity = 0.0;
  uint64_t inits = 0;
  double seconds = 0.0;
};

// Runs SEACD+Refine over `order`, optionally pruning with mu.
VariantResult RunVariant(const Graph& gd_plus,
                         const std::vector<VertexId>& order,
                         const std::vector<double>* mu) {
  WallTimer timer;
  DcsgaResult run;
  AffinityState state(gd_plus);
  for (VertexId u : order) {
    if (gd_plus.Degree(u) == 0) continue;
    if (mu != nullptr && (*mu)[u] <= run.affinity) {
      // With μ-descending order this is a break; with arbitrary order it is
      // only a skip — both are valid prunings of provably hopeless seeds.
      continue;
    }
    state.ResetToVertex(u);
    DescendInPlace(&state, DcsgaOptions{}, &run);
  }
  return {run.affinity, run.initializations, timer.Seconds()};
}

}  // namespace

int main() {
  const uint64_t seed = 20180416;
  std::printf("seed = %llu\n\n", static_cast<unsigned long long>(seed));

  TablePrinter table(
      "Ablation: NewSEA smart-initialization ingredients",
      {"Data", "Variant", "Inits run", "Time (s)", "Best affinity"});

  const std::vector<BenchDataset> datasets =
      BuildBenchDatasets(seed, /*include_large=*/false);
  for (const BenchDataset& dataset : datasets) {
    // Keep the sweep quick: one dataset per source suffices.
    if (dataset.gd_type == "Disappearing" ||
        dataset.gd_type == "Social-Interest" ||
        dataset.gd_type == "Conflicting" || dataset.setting == "Discrete") {
      continue;
    }
    const Graph gd_plus = dataset.gd.PositivePart();
    const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
    const VertexId n = gd_plus.NumVertices();
    std::vector<VertexId> id_order(n);
    std::iota(id_order.begin(), id_order.end(), VertexId{0});
    std::vector<VertexId> mu_order = id_order;
    std::sort(mu_order.begin(), mu_order.end(), [&](VertexId a, VertexId b) {
      return bounds.mu[a] > bounds.mu[b];
    });

    const VariantResult full = RunVariant(gd_plus, mu_order, &bounds.mu);
    const VariantResult order_only = RunVariant(gd_plus, mu_order, nullptr);
    const VariantResult stop_only = RunVariant(gd_plus, id_order, &bounds.mu);
    const VariantResult none = RunVariant(gd_plus, id_order, nullptr);

    auto add = [&](const char* variant, const VariantResult& r) {
      table.AddRow({dataset.data, variant, TablePrinter::Fmt(r.inits),
                    TablePrinter::Fmt(r.seconds, 3),
                    TablePrinter::Fmt(r.affinity, 4)});
    };
    add("order+stop (NewSEA)", full);
    add("order only", order_only);
    add("stop only", stop_only);
    add("none (SEACD+Refine)", none);
    std::fflush(stdout);
  }
  table.Print();
  return 0;
}
