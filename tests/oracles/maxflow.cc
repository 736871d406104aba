#include "oracles/maxflow.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/logging.h"

namespace dcs {

MaxFlow::MaxFlow(uint32_t num_nodes)
    : num_nodes_(num_nodes), adjacency_(num_nodes) {}

uint32_t MaxFlow::AddArc(uint32_t u, uint32_t v, double capacity) {
  DCS_CHECK(u < num_nodes_ && v < num_nodes_);
  DCS_CHECK(capacity >= 0.0);
  const uint32_t forward = static_cast<uint32_t>(arcs_.size());
  arcs_.push_back(Arc{v, forward + 1, capacity});
  arcs_.push_back(Arc{u, forward, 0.0});
  adjacency_[u].push_back(forward);
  adjacency_[v].push_back(forward + 1);
  return forward;
}

bool MaxFlow::BuildLevels(uint32_t s, uint32_t t) {
  level_.assign(num_nodes_, -1);
  std::deque<uint32_t> queue;
  level_[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t arc_index : adjacency_[u]) {
      const Arc& arc = arcs_[arc_index];
      if (arc.capacity > kFlowEps && level_[arc.to] < 0) {
        level_[arc.to] = level_[u] + 1;
        queue.push_back(arc.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::PushBlocking(uint32_t u, uint32_t t, double limit) {
  if (u == t) return limit;
  for (uint32_t& i = iter_[u]; i < adjacency_[u].size(); ++i) {
    Arc& arc = arcs_[adjacency_[u][i]];
    if (arc.capacity > kFlowEps && level_[arc.to] == level_[u] + 1) {
      const double pushed =
          PushBlocking(arc.to, t, std::min(limit, arc.capacity));
      if (pushed > 0.0) {
        arc.capacity -= pushed;
        arcs_[arc.rev].capacity += pushed;
        return pushed;
      }
    }
  }
  return 0.0;
}

double MaxFlow::Solve(uint32_t s, uint32_t t) {
  DCS_CHECK(s != t);
  double flow = 0.0;
  while (BuildLevels(s, t)) {
    iter_.assign(num_nodes_, 0);
    while (true) {
      const double pushed =
          PushBlocking(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= 0.0) break;
      flow += pushed;
    }
  }
  return flow;
}

std::vector<char> MaxFlow::MinCutSourceSide(uint32_t s) const {
  std::vector<char> reachable(num_nodes_, 0);
  std::deque<uint32_t> queue;
  reachable[s] = 1;
  queue.push_back(s);
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t arc_index : adjacency_[u]) {
      const Arc& arc = arcs_[arc_index];
      if (arc.capacity > kFlowEps && !reachable[arc.to]) {
        reachable[arc.to] = 1;
        queue.push_back(arc.to);
      }
    }
  }
  return reachable;
}

}  // namespace dcs
