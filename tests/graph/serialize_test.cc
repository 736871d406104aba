// Graph serialization tests: bit-identical round trips (the precondition of
// the artifact store's determinism contract) and defensive parsing — no
// byte pattern may construct a Graph that violates the class invariants.

#include "graph/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "test_util.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

Graph RoundTrip(const Graph& graph) {
  std::string encoded;
  AppendGraphBytes(graph, &encoded);
  // u32 n, u64 2m, u64 offsets[n + 1], then (u32 to, u64 weight) per half.
  EXPECT_EQ(encoded.size(), 4 + 8 + (graph.NumVertices() + size_t{1}) * 8 +
                                2 * graph.NumEdges() * (4 + 8));
  const std::vector<uint8_t> bytes = Bytes(encoded);
  size_t cursor = 0;
  Result<Graph> parsed = ParseGraphBytes(bytes, &cursor);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(cursor, bytes.size());
  return std::move(parsed).value();
}

TEST(GraphSerializeTest, RoundTripIsBitIdentical) {
  for (const Graph& graph :
       {Fig1G1(), Fig1G2(), Graph(5),
        MakeGraph(4, {{0, 1, 0.1 + 0.2},  // a value with an inexact binary
                      {1, 2, -1e-300},    // representation, a denormal-range
                      {0, 3, 12345.678901234567}})}) {
    const Graph back = RoundTrip(graph);
    EXPECT_EQ(back.NumVertices(), graph.NumVertices());
    EXPECT_EQ(back.NumEdges(), graph.NumEdges());
    EXPECT_EQ(back.ContentFingerprint(), graph.ContentFingerprint());
    EXPECT_EQ(back.UndirectedEdges(), graph.UndirectedEdges());
  }
}

TEST(GraphSerializeTest, ConsecutiveGraphsShareOneBuffer) {
  std::string encoded;
  AppendGraphBytes(Fig1G1(), &encoded);
  AppendGraphBytes(Fig1G2(), &encoded);
  const std::vector<uint8_t> bytes = Bytes(encoded);
  size_t cursor = 0;
  Result<Graph> first = ParseGraphBytes(bytes, &cursor);
  ASSERT_TRUE(first.ok());
  Result<Graph> second = ParseGraphBytes(bytes, &cursor);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cursor, bytes.size());
  EXPECT_EQ(first->ContentFingerprint(), Fig1G1().ContentFingerprint());
  EXPECT_EQ(second->ContentFingerprint(), Fig1G2().ContentFingerprint());
}

TEST(GraphSerializeTest, RejectsTruncation) {
  std::string encoded;
  AppendGraphBytes(Fig1G1(), &encoded);
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{11},
                            encoded.size() / 2, encoded.size() - 1}) {
    const std::vector<uint8_t> bytes =
        Bytes(std::string(encoded.data(), keep));
    size_t cursor = 0;
    EXPECT_FALSE(ParseGraphBytes(bytes, &cursor).ok())
        << "accepted a " << keep << "-byte prefix";
  }
}

TEST(GraphSerializeTest, RejectsOversizedDeclaredCountsWithoutAllocating) {
  // A header claiming 2^40 halves against a tiny buffer must fail the size
  // bound check up front (no giant allocation, no crash).
  std::string encoded;
  const uint32_t n = 2;
  const uint64_t halves = uint64_t{1} << 40;
  encoded.append(reinterpret_cast<const char*>(&n), 4);
  encoded.append(reinterpret_cast<const char*>(&halves), 8);
  encoded.append(64, '\0');
  size_t cursor = 0;
  EXPECT_FALSE(ParseGraphBytes(Bytes(encoded), &cursor).ok());
}

// Mutates one encoded byte span and expects the parse to fail. Offsets are
// relative to the start of the encoding: 0 = num_vertices, 4 =
// num_halves, 12 = offsets array, 12 + (n+1)*8 = neighbor halves.
void ExpectMutationRejected(std::string encoded, size_t offset,
                            uint64_t value, size_t width,
                            const char* reason) {
  ASSERT_LE(offset + width, encoded.size());
  std::memcpy(encoded.data() + offset, &value, width);
  size_t cursor = 0;
  EXPECT_FALSE(ParseGraphBytes(Bytes(encoded), &cursor).ok()) << reason;
}

TEST(GraphSerializeTest, RejectsInvariantViolations) {
  // Fig1G1 has n >= 4 and m >= 4; see tests/test_util.h.
  const Graph graph = Fig1G1();
  const uint32_t n = graph.NumVertices();
  std::string encoded;
  AppendGraphBytes(graph, &encoded);
  const size_t offsets_at = 12;
  const size_t halves_at = offsets_at + (size_t{n} + 1) * 8;

  // Non-monotone offsets: offsets[1] jumps past offsets.back().
  ExpectMutationRejected(encoded, offsets_at + 8, uint64_t{1} << 32, 8,
                         "non-monotone offsets accepted");
  // Out-of-range neighbor id in the first half.
  ExpectMutationRejected(encoded, halves_at, n + 7, 4,
                         "out-of-range neighbor id accepted");
  // NaN weight in the first half.
  ExpectMutationRejected(encoded, halves_at + 4, 0x7FF8000000000000ull, 8,
                         "NaN weight accepted");
  // Zero weight (stored graphs never hold zero-weight edges).
  ExpectMutationRejected(encoded, halves_at + 4, 0, 8,
                         "zero weight accepted");
}

TEST(GraphSerializeTest, RejectsAsymmetricHalves) {
  // Corrupt only the *weight* of one directed half: the pair (u,v)/(v,u)
  // then disagrees, which the symmetry check must catch regardless of which
  // direction holds the bad half.
  const Graph graph = MakeGraph(3, {{0, 1, 2.0}, {1, 2, -3.0}});
  std::string encoded;
  AppendGraphBytes(graph, &encoded);
  const size_t halves_at = 12 + 4 * 8;
  const double bad = 99.0;
  uint64_t bad_bits;
  std::memcpy(&bad_bits, &bad, 8);
  for (size_t half = 0; half < 2 * graph.NumEdges(); ++half) {
    ExpectMutationRejected(encoded, halves_at + half * 12 + 4, bad_bits, 8,
                           "asymmetric weight accepted");
  }
}

}  // namespace
}  // namespace dcs
