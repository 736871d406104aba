#include "core/topk.h"

#include <algorithm>

#include "graph/graph_builder.h"
#include "graph/stats.h"

namespace dcs {

namespace {

bool HasPositiveEdge(const Graph& graph) {
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      if (nb.weight > 0.0) return true;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<RankedDcsad>> MineTopKDcsad(
    const Graph& gd, const TopkDcsadOptions& options) {
  if (gd.NumVertices() == 0) return Status::InvalidArgument("empty graph");
  std::vector<RankedDcsad> results;
  std::vector<char> removed(gd.NumVertices(), 0);
  Graph remaining = gd;
  for (uint32_t round = 0; round < options.k; ++round) {
    DCS_ASSIGN_OR_RETURN(DcsadResult best, RunDcsGreedy(remaining));
    if (best.density <= options.min_density) break;
    RankedDcsad ranked;
    ranked.subset = best.subset;
    // Densities of later rounds are still reported against the original GD;
    // vertex-disjointness makes them identical to the masked-graph values.
    ranked.density = AverageDegreeDensity(gd, best.subset);
    ranked.ratio_bound = best.ratio_bound;
    results.push_back(std::move(ranked));
    for (VertexId v : best.subset) removed[v] = 1;
    // Rebuild the masked difference graph without the found vertices.
    GraphBuilder builder(gd.NumVertices());
    for (VertexId u = 0; u < gd.NumVertices(); ++u) {
      if (removed[u]) continue;
      for (const Neighbor& nb : gd.NeighborsOf(u)) {
        if (u < nb.to && !removed[nb.to]) {
          DCS_RETURN_NOT_OK(builder.AddEdge(u, nb.to, nb.weight));
        }
      }
    }
    DCS_ASSIGN_OR_RETURN(remaining, builder.Build());
    // Without a positive edge DCSGreedy answers with the singleton {0},
    // which may already be taken; every remaining subgraph has density <= 0,
    // so a later round could only repeat a removed vertex.
    if (!HasPositiveEdge(remaining)) break;
  }
  return results;
}

Result<std::vector<CliqueRecord>> MineTopKDcsga(
    const Graph& gd_plus, const TopkDcsgaOptions& options) {
  DcsgaOptions solver = options.solver;
  solver.collect_cliques = true;
  DCS_ASSIGN_OR_RETURN(DcsgaResult harvest,
                       RunDcsgaAllInits(gd_plus, solver));
  std::vector<CliqueRecord> cliques =
      FilterMaximalCliques(std::move(harvest.cliques));
  std::sort(cliques.begin(), cliques.end(),
            [](const CliqueRecord& a, const CliqueRecord& b) {
              return a.affinity > b.affinity;
            });
  std::vector<CliqueRecord> out;
  std::vector<char> used(gd_plus.NumVertices(), 0);
  for (CliqueRecord& clique : cliques) {
    if (out.size() >= options.k) break;
    if (clique.affinity <= options.min_affinity) break;  // sorted: all done
    if (options.disjoint) {
      bool overlaps = false;
      for (VertexId v : clique.members) overlaps |= used[v] != 0;
      if (overlaps) continue;
      for (VertexId v : clique.members) used[v] = 1;
    }
    out.push_back(std::move(clique));
  }
  return out;
}

}  // namespace dcs
