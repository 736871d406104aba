// Streaming update-path equivalence harness: randomized update streams
// (inserts, deletes-to-zero, sign flips, both sides) driven through
// MinerSession::ApplyUpdate must leave the session *bit-identical* to a
// from-scratch session over the same final graphs — for every pipeline
// shape (alpha, flip, discretize, clamp) and for batches of every size, up
// to one that touches more pairs than the graphs hold. This is the contract
// that makes the splice-and-republish flush a pure latency optimization.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/pipeline_cache.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::SerializeSubgraphs;

// The request mix every equivalence round mines: both measures, plus each
// pipeline transform (alpha scaling, flip, discretize, clamp).
std::vector<MiningRequest> EquivalenceRequests() {
  std::vector<MiningRequest> requests(5);
  requests[0].measure = Measure::kBoth;
  requests[1].measure = Measure::kBoth;
  requests[1].alpha = 2.0;
  requests[2].measure = Measure::kBoth;
  requests[2].flip = true;
  requests[3].measure = Measure::kBoth;
  requests[3].discretize = DiscretizeSpec{};
  requests[4].measure = Measure::kBoth;
  requests[4].clamp_weights_above = 1.5;
  return requests;
}

// The test's own ground truth: accumulated weights per side, folded exactly
// like the session folds them (sum, drop |w| <= zero_eps at build time).
struct EdgeLedger {
  std::map<uint64_t, double> weights;

  void Apply(VertexId u, VertexId v, double delta) {
    weights[PackVertexPair(u, v)] += delta;
  }

  Graph Build(VertexId n) const {
    GraphBuilder builder(n);
    for (const auto& [key, weight] : weights) {
      builder.AddEdgeUnchecked(static_cast<VertexId>(key >> 32),
                               static_cast<VertexId>(key & 0xFFFFFFFFull),
                               weight);
    }
    Result<Graph> graph = builder.Build();
    DCS_CHECK(graph.ok());
    return std::move(graph).value();
  }
};

void ExpectGraphsBitIdentical(const Graph& actual, const Graph& expected,
                              const std::string& label) {
  ASSERT_EQ(actual.NumEdges(), expected.NumEdges()) << label;
  const std::vector<Edge> a = actual.UndirectedEdges();
  const std::vector<Edge> b = expected.UndirectedEdges();
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].u, b[i].u) << label;
    ASSERT_EQ(a[i].v, b[i].v) << label;
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i].weight),
              std::bit_cast<uint64_t>(b[i].weight))
        << label << ": weight bits diverge on (" << a[i].u << "," << a[i].v
        << ")";
  }
}

template <typename T>
void ExpectVectorsBitIdentical(const std::vector<T>& actual,
                               const std::vector<T>& expected,
                               const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(T)),
            0)
      << label;
}

// Every resident pipeline of the two caches under `fingerprint`, compared
// field by field. The artifacts themselves must match, not only the answers
// mined from them: a stale smart-init bound can leave every answer intact.
void ExpectCachedPipelinesBitIdentical(const PipelineCache& streamed,
                                       const PipelineCache& control,
                                       uint64_t fingerprint,
                                       const std::string& label) {
  const auto actual = streamed.SnapshotsFor(fingerprint);
  const auto expected = control.SnapshotsFor(fingerprint);
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].first == expected[i].first) << label;
    const PreparedPipeline& a = *actual[i].second;
    const PreparedPipeline& b = *expected[i].second;
    const std::string entry = label + " cached entry #" + std::to_string(i);
    ExpectGraphsBitIdentical(a.difference, b.difference, entry);
    ASSERT_EQ(a.has_ga_artifacts, b.has_ga_artifacts) << entry;
    EXPECT_EQ(a.validated_nonnegative, b.validated_nonnegative) << entry;
    if (!a.has_ga_artifacts) continue;
    ExpectGraphsBitIdentical(a.positive_part, b.positive_part, entry);
    ExpectVectorsBitIdentical(a.smart_bounds.w, b.smart_bounds.w, entry + " w");
    ExpectVectorsBitIdentical(a.smart_bounds.tau, b.smart_bounds.tau,
                              entry + " tau");
    ExpectVectorsBitIdentical(a.smart_bounds.mu, b.smart_bounds.mu,
                              entry + " mu");
    ExpectVectorsBitIdentical(a.smart_bounds.max_incident,
                              b.smart_bounds.max_incident,
                              entry + " max_incident");
    ExpectVectorsBitIdentical(a.smart_bounds.order, b.smart_bounds.order,
                              entry + " order");
  }
}

// Pairs {u,v} whose GD+ presence (difference weight > 0) differs between
// two difference graphs over the same vertices.
size_t StructuralPositiveChanges(const Graph& before, const Graph& after) {
  size_t changes = 0;
  for (VertexId u = 0; u < after.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < after.NumVertices(); ++v) {
      if ((before.EdgeWeight(u, v) > 0.0) != (after.EdgeWeight(u, v) > 0.0)) {
        ++changes;
      }
    }
  }
  return changes;
}

// One randomized stream: apply `rounds` update batches to a streaming
// session, checking every round that responses, difference snapshots,
// cached pipelines and the graph fingerprint are bit-identical to a fresh
// from-scratch session.
// Round `large_round` (none when out of range) sends a batch touching more
// distinct pairs than both graphs hold, while every request's GA pipeline
// is cached from the previous round — it must flip more than 32 GD+ edges,
// which sends the smart-init bounds maintenance through its full k-core
// recompute.
void RunEquivalenceStream(uint64_t seed, int rounds, int batch_size,
                          VertexId n, size_t initial_edges, int large_round,
                          bool check_fingerprint_via_shared_cache) {
  Rng rng(seed);
  Result<MinerSession> session = MinerSession::CreateStreaming(n);
  ASSERT_TRUE(session.ok());
  EdgeLedger g1, g2;

  auto random_pair = [&](VertexId* u, VertexId* v) {
    *u = static_cast<VertexId>(rng.NextBounded(n));
    *v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (*v >= *u) ++*v;
  };

  // Initial bulk load (one big batch into empty graphs).
  for (size_t i = 0; i < initial_edges; ++i) {
    VertexId u, v;
    random_pair(&u, &v);
    const bool side1 = rng.Bernoulli(0.5);
    const double w = rng.Uniform(-2.0, 3.0);
    EdgeLedger& ledger = side1 ? g1 : g2;
    ASSERT_TRUE(session
                    ->ApplyUpdate(side1 ? UpdateSide::kG1 : UpdateSide::kG2,
                                  u, v, w)
                    .ok());
    ledger.Apply(u, v, w);
  }

  const std::vector<MiningRequest> requests = EquivalenceRequests();
  Graph previous_gd(n);
  for (int round = 0; round <= rounds; ++round) {
    if (round > 0) {
      // A small batch: inserts, deletes-to-zero, and sign flips, both sides.
      // The large round keeps drawing until it has touched more distinct
      // pairs than the graphs hold.
      const size_t held = round == large_round
                              ? g1.Build(n).NumEdges() + g2.Build(n).NumEdges()
                              : 0;
      std::set<uint64_t> touched;
      for (int i = 0; i < batch_size || touched.size() <= held; ++i) {
        VertexId u, v;
        random_pair(&u, &v);
        touched.insert(PackVertexPair(u, v));
        const bool side1 = rng.Bernoulli(0.4);
        EdgeLedger& ledger = side1 ? g1 : g2;
        const uint64_t key = PackVertexPair(u, v);
        double delta;
        const uint64_t kind = rng.NextBounded(4);
        auto it = ledger.weights.find(key);
        if (kind == 0 && it != ledger.weights.end()) {
          delta = -it->second;  // exact delete-to-zero
        } else if (kind == 1 && it != ledger.weights.end()) {
          delta = -2.0 * it->second;  // sign flip
        } else {
          delta = rng.Uniform(-2.0, 2.0);
        }
        ASSERT_TRUE(session
                        ->ApplyUpdate(side1 ? UpdateSide::kG1
                                            : UpdateSide::kG2,
                                      u, v, delta)
                        .ok());
        ledger.Apply(u, v, delta);
      }
    }

    const Graph fresh_g1 = g1.Build(n);
    const Graph fresh_g2 = g2.Build(n);
    Result<MinerSession> control = MinerSession::Create(fresh_g1, fresh_g2);
    ASSERT_TRUE(control.ok());
    for (size_t r = 0; r < requests.size(); ++r) {
      const std::string label = "seed " + std::to_string(seed) + " round " +
                                std::to_string(round) + " request #" +
                                std::to_string(r);
      Result<Graph> streamed_gd = session->DifferenceSnapshot(requests[r]);
      Result<Graph> control_gd = control->DifferenceSnapshot(requests[r]);
      ASSERT_TRUE(streamed_gd.ok() && control_gd.ok()) << label;
      ExpectGraphsBitIdentical(*streamed_gd, *control_gd, label);
      if (r == 0) {
        if (round == large_round) {
          EXPECT_GT(StructuralPositiveChanges(previous_gd, *control_gd), 32u)
              << label;
        }
        previous_gd = *control_gd;
      }

      Result<MiningResponse> streamed = session->Mine(requests[r]);
      Result<MiningResponse> expected = control->Mine(requests[r]);
      ASSERT_TRUE(streamed.ok() && expected.ok()) << label;
      EXPECT_EQ(SerializeSubgraphs(*streamed), SerializeSubgraphs(*expected))
          << label;
    }
    ExpectCachedPipelinesBitIdentical(
        *session->pipeline_cache(), *control->pipeline_cache(),
        PipelineGraphFingerprint(fresh_g1, fresh_g2),
        "seed " + std::to_string(seed) + " round " + std::to_string(round));
  }

  if (check_fingerprint_via_shared_cache) {
    // The incrementally maintained fingerprint must equal the from-scratch
    // one: attach a fresh batch session over the final graphs to the
    // streaming session's cache — its very first mine must *hit* the
    // entries the streaming session (re)published.
    auto cache = std::make_shared<PipelineCache>();
    session->UsePipelineCache(cache);
    ASSERT_TRUE(session->Mine(requests[0]).ok());
    SessionOptions shared_options;
    shared_options.pipeline_cache = cache;
    Result<MinerSession> verifier =
        MinerSession::Create(g1.Build(n), g2.Build(n), shared_options);
    ASSERT_TRUE(verifier.ok());
    Result<MiningResponse> hit = verifier->Mine(requests[0]);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->telemetry.reused_cached_difference)
        << "patched fingerprint diverged from the from-scratch fingerprint";
    EXPECT_EQ(verifier->num_rebuilds(), 0u);
  }
}

TEST(StreamingUpdateEquivalenceTest, PatchedPathMatchesFromScratchSessions) {
  RunEquivalenceStream(/*seed=*/101, /*rounds=*/8, /*batch_size=*/3,
                       /*n=*/48, /*initial_edges=*/240, /*large_round=*/-1,
                       /*check_fingerprint_via_shared_cache=*/true);
}

TEST(StreamingUpdateEquivalenceTest, LargeBatchOnWarmCacheMatchesFromScratch) {
  // Round 3's batch outnumbers the resident edges and is still patched into
  // every cached pipeline; the rounds after it go back to small batches.
  RunEquivalenceStream(/*seed=*/202, /*rounds=*/6, /*batch_size=*/4,
                       /*n=*/40, /*initial_edges=*/160, /*large_round=*/3,
                       /*check_fingerprint_via_shared_cache=*/true);
}

TEST(StreamingUpdateEquivalenceTest, PatchPathIsActuallyTaken) {
  Result<MinerSession> session = MinerSession::CreateStreaming(30);
  ASSERT_TRUE(session.ok());
  // Bulk load a ring into an empty cache, then a single-edge update that
  // must republish the cached pipeline.
  for (VertexId u = 0; u < 30; ++u) {
    ASSERT_TRUE(session
                    ->ApplyUpdate(UpdateSide::kG2, u, (u + 1) % 30,
                                  1.0 + u)
                    .ok());
  }
  MiningRequest request;
  request.measure = Measure::kBoth;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_update_patches(), 1u);
  EXPECT_EQ(session->num_republished_entries(), 0u);

  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 5, 4.0).ok());
  Result<MiningResponse> patched = session->Mine(request);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(session->num_update_patches(), 2u);
  EXPECT_GE(session->num_republished_entries(), 1u);
  EXPECT_TRUE(patched->telemetry.reused_cached_difference);
}

TEST(StreamingUpdateEquivalenceTest, NetZeroBatchKeepsCachedPipelines) {
  // A batch whose deltas cancel exactly leaves the graph content — and the
  // fingerprint — unchanged: the resident entries stay valid, nothing is
  // republished or erased, and the next mine still hits.
  Result<MinerSession> session = MinerSession::CreateStreaming(12);
  ASSERT_TRUE(session.ok());
  for (VertexId u = 0; u < 11; ++u) {
    ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, u, u + 1, 1.0 + u).ok());
  }
  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MiningResponse> before = session->Mine(request);
  ASSERT_TRUE(before.ok());
  const uint64_t rebuilds = session->num_rebuilds();

  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.5).ok());
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, -2.5).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->telemetry.reused_cached_difference)
      << "a net-zero flush must not invalidate the cached pipeline";
  EXPECT_EQ(session->num_rebuilds(), rebuilds);
  EXPECT_EQ(session->num_republished_entries(), 0u);
  EXPECT_EQ(SerializeSubgraphs(*before), SerializeSubgraphs(*after));
}

TEST(StreamingUpdateEquivalenceTest, SubEpsBaseEdgesAgreeAcrossCrossover) {
  // An input edge below kDefaultZeroEps (kept by Build(0.0)): the session
  // normalizes it away up front, so a streamed session agrees with a
  // from-scratch one whose default build drops the same edge.
  GraphBuilder b1(6), b2(6), control_b2(6);
  for (GraphBuilder* b : {&b2, &control_b2}) {
    b->AddEdgeUnchecked(0, 1, 3.0);
    b->AddEdgeUnchecked(1, 2, 1e-13);  // below kDefaultZeroEps
    b->AddEdgeUnchecked(2, 3, 2.0);
    b->AddEdgeUnchecked(3, 4, 1.5);
  }
  control_b2.AddEdgeUnchecked(4, 5, 1.0);
  Result<Graph> g1 = b1.Build();
  Result<Graph> g2 = b2.Build(/*zero_eps=*/0.0);
  Result<Graph> control_g2 = control_b2.Build();
  ASSERT_TRUE(g1.ok() && g2.ok() && control_g2.ok());
  ASSERT_TRUE(g2->HasEdge(1, 2));

  Result<MinerSession> session = MinerSession::Create(*g1, *g2);
  Result<MinerSession> control = MinerSession::Create(*g1, *control_g2);
  ASSERT_TRUE(session.ok() && control.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;
  ASSERT_TRUE(session->Mine(request).ok());  // caches the pipeline
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 4, 5, 1.0).ok());
  Result<MiningResponse> streamed = session->Mine(request);
  Result<MiningResponse> expected = control->Mine(request);
  ASSERT_TRUE(streamed.ok() && expected.ok());
  EXPECT_EQ(SerializeSubgraphs(*streamed), SerializeSubgraphs(*expected));
  Result<Graph> streamed_gd = session->DifferenceSnapshot();
  Result<Graph> control_gd = control->DifferenceSnapshot();
  ASSERT_TRUE(streamed_gd.ok() && control_gd.ok());
  ExpectGraphsBitIdentical(*streamed_gd, *control_gd, "sub-eps base edges");
  EXPECT_FALSE(streamed_gd->HasEdge(1, 2));
}

TEST(StreamingUpdateEquivalenceTest, EmptyFlushIsANoOp) {
  Result<MinerSession> session = MinerSession::CreateStreaming(8);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.0).ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> first = session->Mine(request);
  ASSERT_TRUE(first.ok());
  const uint64_t flushes = session->num_update_patches();
  // No pending updates: repeated mining flushes nothing and hits the cache.
  Result<MiningResponse> second = session->Mine(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session->num_update_patches(), flushes);
  EXPECT_TRUE(second->telemetry.reused_cached_difference);
  EXPECT_EQ(SerializeSubgraphs(*first), SerializeSubgraphs(*second));
}

TEST(StreamingUpdateEquivalenceTest, FlushIsIndependentOfUpdateArrivalOrder) {
  // The pending batch is folded in sorted PackVertexPair order, so two
  // sessions receiving the same updates (distinct pairs) in different
  // arrival orders produce bit-identical graphs and responses.
  const std::vector<std::tuple<UpdateSide, VertexId, VertexId, double>>
      updates = {{UpdateSide::kG2, 3, 7, 2.5},  {UpdateSide::kG1, 1, 2, 1.0},
                 {UpdateSide::kG2, 0, 9, -1.5}, {UpdateSide::kG2, 4, 5, 0.75},
                 {UpdateSide::kG1, 6, 8, -0.25}};
  Result<MinerSession> forward = MinerSession::CreateStreaming(10);
  Result<MinerSession> backward = MinerSession::CreateStreaming(10);
  ASSERT_TRUE(forward.ok() && backward.ok());
  for (const auto& [side, u, v, w] : updates) {
    ASSERT_TRUE(forward->ApplyUpdate(side, u, v, w).ok());
  }
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    const auto& [side, u, v, w] = *it;
    ASSERT_TRUE(backward->ApplyUpdate(side, u, v, w).ok());
  }
  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MiningResponse> a = forward->Mine(request);
  Result<MiningResponse> b = backward->Mine(request);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SerializeSubgraphs(*a), SerializeSubgraphs(*b));
  Result<Graph> gd_a = forward->DifferenceSnapshot();
  Result<Graph> gd_b = backward->DifferenceSnapshot();
  ASSERT_TRUE(gd_a.ok() && gd_b.ok());
  ExpectGraphsBitIdentical(*gd_a, *gd_b, "arrival order");
}

}  // namespace
}  // namespace dcs
