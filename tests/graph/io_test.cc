#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/random_graphs.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

TEST(IoTest, RoundTripThroughStream) {
  Graph g = MakeGraph(5, {{0, 1, 1.5}, {1, 2, -2.25}, {3, 4, 0.125}});
  std::stringstream buffer;
  ASSERT_TRUE(WriteEdgeList(g, buffer).ok());
  auto loaded = ReadEdgeList(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumVertices(), 5u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(1, 2), -2.25);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(3, 4), 0.125);
}

TEST(IoTest, RoundTripPreservesExactDoubles) {
  Rng rng(77);
  auto g = RandomSignedGraph(30, 100, 0.5, 0.1, 9.0, &rng);
  ASSERT_TRUE(g.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteEdgeList(*g, buffer).ok());
  auto loaded = ReadEdgeList(buffer);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumEdges(), g->NumEdges());
  for (const Edge& e : g->UndirectedEdges()) {
    EXPECT_DOUBLE_EQ(loaded->EdgeWeight(e.u, e.v), e.weight);
  }
}

TEST(IoTest, CommentsAndBlankLinesSkipped) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "3\n"
      "# another comment\n"
      "0 1 2.0\n"
      "\n"
      "1 2 -1.0\n");
  auto g = ReadEdgeList(in);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 2u);
}

TEST(IoTest, DuplicateEdgesAccumulate) {
  std::stringstream in("2\n0 1 1.0\n1 0 2.0\n");
  auto g = ReadEdgeList(in);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 3.0);
}

TEST(IoTest, MissingHeaderRejected) {
  std::stringstream in("# only comments\n");
  auto g = ReadEdgeList(in);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIoError());
}

TEST(IoTest, NegativeVertexCountRejected) {
  std::stringstream in("-3\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(IoTest, VertexCountBeyondVertexIdRangeRejected) {
  // A count past the VertexId range must fail on its header line, not wrap
  // (2^32 + 3 would read as 3 vertices, 2^32 as none).
  for (const char* count : {"4294967299", "4294967296"}) {
    std::stringstream in(std::string("# header\n") + count + "\n1 2 1.0\n");
    auto g = ReadEdgeList(in);
    ASSERT_FALSE(g.ok()) << count;
    EXPECT_TRUE(g.status().IsIoError()) << count;
    EXPECT_NE(g.status().message().find("line 2"), std::string::npos)
        << g.status().message();
  }
}

TEST(IoTest, MalformedEdgeRejected) {
  std::stringstream in("3\n0 1\n");
  auto g = ReadEdgeList(in);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(IoTest, TrailingTokensRejected) {
  std::stringstream in("3\n0 1 2.0 extra\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(IoTest, OutOfRangeEndpointRejected) {
  std::stringstream in("3\n0 7 1.0\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(IoTest, SelfLoopRejected) {
  std::stringstream in("3\n1 1 1.0\n");
  auto g = ReadEdgeList(in);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("self-loop"), std::string::npos);
}

TEST(IoTest, NonNumericWeightRejected) {
  std::stringstream in("3\n0 1 heavy\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(IoTest, FileRoundTrip) {
  Graph g = MakeGraph(3, {{0, 2, 4.5}});
  const std::string path = ::testing::TempDir() + "/dcs_io_test_graph.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto loaded = ReadEdgeListFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 2), 4.5);
}

TEST(IoTest, MissingFileRejected) {
  auto g = ReadEdgeListFile("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIoError());
}

TEST(IoTest, UnwritablePathRejected) {
  Graph g(1);
  EXPECT_FALSE(WriteEdgeListFile(g, "/nonexistent/dir/graph.txt").ok());
}

TEST(IoTest, EmptyGraphRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(WriteEdgeList(Graph(4), buffer).ok());
  auto loaded = ReadEdgeList(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumVertices(), 4u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
}

}  // namespace
}  // namespace dcs
