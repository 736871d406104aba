// Graph serialization tests: bit-identical round trips (the precondition of
// the artifact store's determinism contract) and defensive parsing — no
// byte pattern may construct a Graph that violates the class invariants.

#include "graph/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "oracles/naive_pipeline.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::SameGraphBits;

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

// The fixed small signed graph whose encoding GoldenBytes pins.
Graph GoldenGraph() {
  return MakeGraph(4, {{0, 1, 2.0}, {1, 2, -3.0}, {0, 3, 0.5}});
}

std::string HexOf(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

TEST(GraphSerializeTest, GoldenBytes) {
  // Little-endian, laid out as graph/serialize.h documents: the header, the
  // offsets of rows {1,3}, {0,2}, {1}, {0}, then one (u32 to, f64 weight)
  // record per directed half in row order.
  const std::string expected =
      "04000000"          // n = 4
      "0600000000000000"  // 2m = 6
      "0000000000000000"  // offsets
      "0200000000000000"
      "0400000000000000"
      "0500000000000000"
      "0600000000000000"
      "01000000" "0000000000000040"  // 0 -> 1, 2.0
      "03000000" "000000000000e03f"  // 0 -> 3, 0.5
      "00000000" "0000000000000040"  // 1 -> 0, 2.0
      "02000000" "00000000000008c0"  // 1 -> 2, -3.0
      "01000000" "00000000000008c0"  // 2 -> 1, -3.0
      "00000000" "000000000000e03f";  // 3 -> 0, 0.5
  std::string encoded;
  AppendGraphBytes(GoldenGraph(), &encoded);
  EXPECT_EQ(HexOf(encoded), expected);
}

// A mutant must be rejected, or parse to a graph that satisfies every Graph
// invariant — GraphBuilder rebuilds it bit for bit from its own edge list —
// and re-serializes to exactly the bytes the parse consumed.
void ExpectRejectedOrCanonical(const std::string& mutant, const char* what,
                               size_t where) {
  const std::vector<uint8_t> bytes = Bytes(mutant);
  size_t cursor = 0;
  Result<Graph> parsed = ParseGraphBytes(bytes, &cursor);
  if (!parsed.ok()) return;
  ASSERT_LE(cursor, bytes.size()) << what << " " << where;
  GraphBuilder builder(parsed->NumVertices());
  for (const Edge& e : parsed->UndirectedEdges()) {
    builder.AddEdgeUnchecked(e.u, e.v, e.weight);
  }
  Result<Graph> rebuilt = builder.Build(/*zero_eps=*/0.0);
  ASSERT_TRUE(rebuilt.ok()) << what << " " << where;
  EXPECT_TRUE(SameGraphBits(*parsed, *rebuilt))
      << what << " " << where << " parsed to a non-canonical graph";
  std::string again;
  AppendGraphBytes(*parsed, &again);
  EXPECT_EQ(again, mutant.substr(0, cursor))
      << what << " " << where << " does not re-serialize to its bytes";
}

TEST(GraphSerializeTest, MutationSweepRejectsOrStaysCanonical) {
  std::string golden;
  AppendGraphBytes(GoldenGraph(), &golden);
  for (size_t keep = 0; keep <= golden.size(); ++keep) {
    ExpectRejectedOrCanonical(golden.substr(0, keep), "truncation to", keep);
  }
  for (size_t at = 0; at < golden.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = golden;
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
      ExpectRejectedOrCanonical(mutant, "bit flip at byte", at);
    }
  }
  // Seeded multi-byte corruption: a few random bytes overwritten at once,
  // which single flips cannot reach (e.g. both halves of an edge at once).
  Rng rng(20181016);
  for (size_t trial = 0; trial < 2000; ++trial) {
    std::string mutant = golden;
    const size_t writes = 1 + rng.NextBounded(4);
    for (size_t k = 0; k < writes; ++k) {
      mutant[rng.NextBounded(mutant.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    ExpectRejectedOrCanonical(mutant, "seeded corruption trial", trial);
  }
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
