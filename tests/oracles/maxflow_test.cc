#include "oracles/maxflow.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "util/rng.h"

namespace dcs {
namespace {

TEST(MaxFlowTest, SingleArc) {
  MaxFlow flow(2);
  flow.AddArc(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 1), 5.0);
}

TEST(MaxFlowTest, SeriesArcsBottleneck) {
  MaxFlow flow(3);
  flow.AddArc(0, 1, 5.0);
  flow.AddArc(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 2), 3.0);
}

TEST(MaxFlowTest, ParallelPathsAdd) {
  MaxFlow flow(4);
  flow.AddArc(0, 1, 2.0);
  flow.AddArc(1, 3, 2.0);
  flow.AddArc(0, 2, 3.0);
  flow.AddArc(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 3), 5.0);
}

TEST(MaxFlowTest, ClassicTextbookNetwork) {
  // CLRS-style example with a known max flow of 23.
  MaxFlow flow(6);
  flow.AddArc(0, 1, 16.0);
  flow.AddArc(0, 2, 13.0);
  flow.AddArc(1, 2, 10.0);
  flow.AddArc(2, 1, 4.0);
  flow.AddArc(1, 3, 12.0);
  flow.AddArc(3, 2, 9.0);
  flow.AddArc(2, 4, 14.0);
  flow.AddArc(4, 3, 7.0);
  flow.AddArc(3, 5, 20.0);
  flow.AddArc(4, 5, 4.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 5), 23.0);
}

TEST(MaxFlowTest, DisconnectedSinkIsZero) {
  MaxFlow flow(3);
  flow.AddArc(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 2), 0.0);
}

TEST(MaxFlowTest, ZeroCapacityArc) {
  MaxFlow flow(2);
  flow.AddArc(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 1), 0.0);
}

TEST(MaxFlowTest, MinCutSourceSideIsClosedUnderResidualArcs) {
  MaxFlow flow(4);
  flow.AddArc(0, 1, 1.0);
  flow.AddArc(0, 2, 1.0);
  flow.AddArc(1, 3, 0.5);
  flow.AddArc(2, 3, 0.5);
  flow.Solve(0, 3);
  const auto side = flow.MinCutSourceSide(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);  // arc 0->1 not saturated (0.5 of 1.0 used)
  EXPECT_TRUE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlowTest, FractionalCapacities) {
  MaxFlow flow(3);
  flow.AddArc(0, 1, 0.75);
  flow.AddArc(1, 2, 0.25);
  EXPECT_NEAR(flow.Solve(0, 2), 0.25, 1e-12);
}

TEST(MaxFlowTest, FlowConservationOnRandomNetworks) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t n = 8;
    MaxFlow flow(n);
    std::vector<std::tuple<uint32_t, uint32_t, double, uint32_t>> arcs;
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v = 0; v < n; ++v) {
        if (u != v && rng.Bernoulli(0.35)) {
          const double cap = rng.Uniform(0.0, 4.0);
          const uint32_t id = flow.AddArc(u, v, cap);
          arcs.emplace_back(u, v, cap, id);
        }
      }
    }
    const double value = flow.Solve(0, n - 1);
    EXPECT_GE(value, -1e-9);
    // Conservation: net outflow zero at internal nodes, +value at source.
    std::vector<double> net(n, 0.0);
    for (const auto& [u, v, cap, id] : arcs) {
      const double used = cap - flow.ResidualCapacity(id);
      EXPECT_GE(used, -1e-9);
      EXPECT_LE(used, cap + 1e-9);
      net[u] += used;
      net[v] -= used;
    }
    EXPECT_NEAR(net[0], value, 1e-9);
    EXPECT_NEAR(net[n - 1], -value, 1e-9);
    for (uint32_t u = 1; u + 1 < n; ++u) EXPECT_NEAR(net[u], 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace dcs
