// Dinic's maximum-flow algorithm on real-valued capacities.
//
// Substrate for the exact densest-subgraph solver (Goldberg's max-flow
// reduction, tests/oracles/goldberg.h). Capacities are doubles; residual arcs
// below kFlowEps are treated as saturated, which is standard practice for
// flow networks whose capacities come from graph weights.

#ifndef DCS_TESTS_ORACLES_MAXFLOW_H_
#define DCS_TESTS_ORACLES_MAXFLOW_H_

#include <cstdint>
#include <vector>

namespace dcs {

/// \brief Max-flow solver (Dinic) over a mutable arc list.
class MaxFlow {
 public:
  static constexpr double kFlowEps = 1e-9;

  /// \param num_nodes total node count; node ids in [0, num_nodes).
  explicit MaxFlow(uint32_t num_nodes);

  /// Adds a directed arc u -> v with the given capacity (>= 0) and its
  /// residual reverse arc of capacity 0. Returns the arc index (for
  /// inspecting flows after the run).
  uint32_t AddArc(uint32_t u, uint32_t v, double capacity);

  /// Computes the max flow from s to t. May be called once per instance.
  double Solve(uint32_t s, uint32_t t);

  /// After Solve: nodes reachable from `s` in the residual network — the
  /// source side of a minimum cut.
  std::vector<char> MinCutSourceSide(uint32_t s) const;

  /// Remaining capacity of arc `arc_index`.
  double ResidualCapacity(uint32_t arc_index) const {
    return arcs_[arc_index].capacity;
  }

 private:
  struct Arc {
    uint32_t to;
    uint32_t rev;  // index of the reverse arc in arcs_
    double capacity;
  };

  bool BuildLevels(uint32_t s, uint32_t t);
  double PushBlocking(uint32_t u, uint32_t t, double limit);

  uint32_t num_nodes_;
  std::vector<std::vector<uint32_t>> adjacency_;  // arc indices per node
  std::vector<Arc> arcs_;
  std::vector<int32_t> level_;
  std::vector<uint32_t> iter_;
};

}  // namespace dcs

#endif  // DCS_TESTS_ORACLES_MAXFLOW_H_
