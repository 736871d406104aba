#include "oracles/max_clique.h"

#include <algorithm>

namespace dcs {
namespace {

// Branch-and-bound state over a dense adjacency snapshot (the solver is for
// oracle-scale graphs; a bitset-free matrix keeps the code simple).
class CliqueSearch {
 public:
  CliqueSearch(const Graph& graph, uint64_t max_nodes)
      : n_(graph.NumVertices()),
        max_nodes_(max_nodes),
        adjacent_(static_cast<size_t>(n_) * n_, 0) {
    for (VertexId u = 0; u < n_; ++u) {
      for (const Neighbor& nb : graph.NeighborsOf(u)) {
        adjacent_[static_cast<size_t>(u) * n_ + nb.to] = 1;
      }
    }
  }

  bool Adjacent(VertexId a, VertexId b) const {
    return adjacent_[static_cast<size_t>(a) * n_ + b] != 0;
  }

  // Returns false if the node budget was exhausted.
  bool Expand(std::vector<VertexId>* candidates,
              std::vector<VertexId>* current) {
    if (++nodes_expanded_ > max_nodes_) return false;
    while (!candidates->empty()) {
      // Greedy coloring bound: color candidates; if |current| + colors used
      // cannot beat the incumbent, prune the whole subtree.
      std::vector<int> color(candidates->size(), 0);
      int num_colors = 0;
      for (size_t i = 0; i < candidates->size(); ++i) {
        // Smallest color not used by earlier adjacent candidates.
        int used_mask_limit = num_colors + 1;
        std::vector<char> used(used_mask_limit + 2, 0);
        for (size_t j = 0; j < i; ++j) {
          if (Adjacent((*candidates)[i], (*candidates)[j])) {
            if (color[j] <= used_mask_limit) used[color[j]] = 1;
          }
        }
        int c = 1;
        while (c <= used_mask_limit && used[c]) ++c;
        color[i] = c;
        num_colors = std::max(num_colors, c);
      }
      // Order candidates by color ascending so the last one has the max
      // color (standard Tomita ordering: branch on high-color vertices).
      std::vector<size_t> order(candidates->size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](size_t a, size_t b) { return color[a] < color[b]; });
      // Branch on the highest-color candidate.
      const size_t pick_pos = order.back();
      const VertexId pick = (*candidates)[pick_pos];
      if (current->size() + static_cast<size_t>(color[pick_pos]) <=
          best_.size()) {
        return true;  // bound: even the best coloring cannot improve
      }
      current->push_back(pick);
      std::vector<VertexId> next;
      for (VertexId c : *candidates) {
        if (c != pick && Adjacent(pick, c)) next.push_back(c);
      }
      if (next.empty()) {
        if (current->size() > best_.size()) best_ = *current;
      } else {
        if (!Expand(&next, current)) return false;
      }
      current->pop_back();
      candidates->erase(candidates->begin() + static_cast<long>(pick_pos));
    }
    return true;
  }

  bool Run() {
    std::vector<VertexId> candidates(n_);
    for (VertexId v = 0; v < n_; ++v) candidates[v] = v;
    // Degeneracy-order candidates: low-core vertices get eliminated early.
    std::vector<VertexId> current;
    return Expand(&candidates, &current);
  }

  std::vector<VertexId> best() const { return best_; }
  uint64_t nodes_expanded() const { return nodes_expanded_; }

 private:
  VertexId n_;
  uint64_t max_nodes_;
  uint64_t nodes_expanded_ = 0;
  std::vector<char> adjacent_;
  std::vector<VertexId> best_;
};

}  // namespace

Result<MaxCliqueResult> FindMaxClique(const Graph& graph,
                                      const MaxCliqueOptions& options) {
  MaxCliqueResult result;
  if (graph.NumVertices() == 0) return result;
  CliqueSearch search(graph, options.max_nodes);
  if (!search.Run()) {
    return Status::NotConverged("max-clique node budget exhausted");
  }
  result.members = search.best();
  if (result.members.empty()) result.members = {0};  // edgeless graph
  std::sort(result.members.begin(), result.members.end());
  result.nodes_expanded = search.nodes_expanded();
  return result;
}

}  // namespace dcs
