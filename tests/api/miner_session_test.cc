// MinerSession tests: construction, AD/GA parity with the direct core
// calls, pipeline-cache behavior, streaming invalidation, warm starts,
// intra-request parallelism, and which requests the response memo may
// serve.

#include "api/miner_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "api/solver_registry.h"
#include "core/dcs_greedy.h"
#include "core/kernels.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::SerializeSubgraphs;

TEST(MinerSessionTest, CreateRejectsMismatchedOrEmptyGraphs) {
  EXPECT_TRUE(MinerSession::Create(MakeGraph(3, {}), MakeGraph(4, {}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MinerSession::Create(Graph(0), Graph(0))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MinerSession::CreateStreaming(0).status().IsInvalidArgument());
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2()).ok());
}

TEST(MinerSessionTest, CreateRejectsInvalidNumericOptions) {
  SessionOptions nan_eps;
  nan_eps.zero_eps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2(), nan_eps)
                  .status()
                  .IsInvalidArgument());
  SessionOptions negative_eps;
  negative_eps.zero_eps = -1.0;
  EXPECT_TRUE(MinerSession::CreateStreaming(4, negative_eps)
                  .status()
                  .IsInvalidArgument());
  SessionOptions nan_ratio;
  nan_ratio.patch_rebuild_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2(), nan_ratio)
                  .status()
                  .IsInvalidArgument());
  SessionOptions negative_ratio;
  negative_ratio.patch_rebuild_ratio = -0.5;
  EXPECT_TRUE(MinerSession::CreateStreaming(4, negative_ratio)
                  .status()
                  .IsInvalidArgument());
}

TEST(MinerSessionTest, MineValidatesTheRequest) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.alpha = -1.0;
  EXPECT_TRUE(session->Mine(request).status().IsInvalidArgument());
  request = MiningRequest{};
  request.top_k = 0;
  EXPECT_TRUE(session->Mine(request).status().IsInvalidArgument());
}

TEST(MinerSessionTest, AverageDegreeParityWithDcsGreedy) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->average_degree.size(), 1u);

  Result<DcsadResult> direct = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(direct.ok());
  std::vector<VertexId> expected = direct->subset;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(response->average_degree[0].vertices, expected);
  EXPECT_DOUBLE_EQ(response->average_degree[0].value, direct->density);
  EXPECT_DOUBLE_EQ(response->average_degree[0].ratio_bound,
                   direct->ratio_bound);
}

// Regression: a top-k DCSAD request with a negative min_density must stay
// vertex-disjoint once the positive edges run out (it used to report the
// singleton {0} twice after {0, 1}).
TEST(MinerSessionTest, TopKAverageDegreeBelowZeroStaysDisjoint) {
  // GD = G2 - G1 = {(0,1,+2), (2,3,-1)}.
  Result<MinerSession> session = MinerSession::Create(
      MakeGraph(4, {{2, 3, 1.0}}), MakeGraph(4, {{0, 1, 2.0}}));
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  request.top_k = 3;
  request.min_density = -1.0;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->average_degree.size(), 1u);
  EXPECT_EQ(response->average_degree[0].vertices,
            (std::vector<VertexId>{0, 1}));
  EXPECT_DOUBLE_EQ(response->average_degree[0].value, 2.0);
}

TEST(MinerSessionTest, GraphAffinityParityWithNewSea) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->graph_affinity.size(), 1u);

  Result<DcsgaResult> direct = RunNewSea(Fig1Gd().PositivePart());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response->graph_affinity[0].vertices, direct->support);
  EXPECT_DOUBLE_EQ(response->graph_affinity[0].value, direct->affinity);
  ASSERT_EQ(response->graph_affinity[0].weights.size(),
            direct->support.size());
  for (size_t i = 0; i < direct->support.size(); ++i) {
    EXPECT_DOUBLE_EQ(response->graph_affinity[0].weights[i],
                     direct->x.x[direct->support[i]]);
  }
  EXPECT_TRUE(response->graph_affinity[0].positive_clique);
  EXPECT_EQ(response->telemetry.initializations, direct->initializations);
}

TEST(MinerSessionTest, ParityOnPlantedCoauthorFixture) {
  Rng rng(101);
  CoauthorConfig config;
  config.num_authors = 1500;
  config.emerging_sizes = {5, 7};
  config.disappearing_sizes = {6};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  ASSERT_TRUE(data.ok());

  Result<MinerSession> session = MinerSession::Create(data->g1, data->g2);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());

  Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  Result<DcsadResult> ad = RunDcsGreedy(*gd);
  Result<DcsgaResult> ga = RunNewSea(gd->PositivePart());
  ASSERT_TRUE(ad.ok());
  ASSERT_TRUE(ga.ok());

  ASSERT_EQ(response->average_degree.size(), 1u);
  std::vector<VertexId> expected_ad = ad->subset;
  std::sort(expected_ad.begin(), expected_ad.end());
  EXPECT_EQ(response->average_degree[0].vertices, expected_ad);
  EXPECT_DOUBLE_EQ(response->average_degree[0].value, ad->density);

  ASSERT_EQ(response->graph_affinity.size(), 1u);
  EXPECT_EQ(response->graph_affinity[0].vertices, ga->support);
  EXPECT_DOUBLE_EQ(response->graph_affinity[0].value, ga->affinity);
}

TEST(MinerSessionTest, DiscretizeAndFlipParity) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  request.discretize = DiscretizeSpec{};
  Result<MiningResponse> discrete = session->Mine(request);
  ASSERT_TRUE(discrete.ok());
  Result<Graph> mapped = DiscretizeWeights(Fig1Gd(), DiscretizeSpec{});
  ASSERT_TRUE(mapped.ok());
  Result<DcsadResult> direct = RunDcsGreedy(*mapped);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(discrete->average_degree.size(), 1u);
  EXPECT_DOUBLE_EQ(discrete->average_degree[0].value, direct->density);

  request = MiningRequest{};
  request.measure = Measure::kAverageDegree;
  request.flip = true;
  Result<MiningResponse> flipped = session->Mine(request);
  ASSERT_TRUE(flipped.ok());
  Result<Graph> gd_flipped = BuildDifferenceGraph(Fig1G2(), Fig1G1());
  ASSERT_TRUE(gd_flipped.ok());
  Result<DcsadResult> direct_flipped = RunDcsGreedy(*gd_flipped);
  ASSERT_TRUE(direct_flipped.ok());
  ASSERT_EQ(flipped->average_degree.size(), 1u);
  EXPECT_DOUBLE_EQ(flipped->average_degree[0].value,
                   direct_flipped->density);
}

TEST(MinerSessionTest, RepeatedQueriesReuseTheCachedDifference) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;

  Result<MiningResponse> first = session->Mine(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);
  EXPECT_FALSE(first->telemetry.reused_cached_difference);

  for (int i = 0; i < 5; ++i) {
    Result<MiningResponse> again = session->Mine(request);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->telemetry.reused_cached_difference);
  }
  EXPECT_EQ(session->num_rebuilds(), 1u) << "cache must keep rebuilds flat";

  // A different pipeline key materializes once...
  request.alpha = 2.0;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 2u);
  // ...and the first pipeline is still cached.
  request.alpha = 1.0;
  Result<MiningResponse> back = session->Mine(request);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_rebuilds(), 2u);
  EXPECT_EQ(session->num_cached_pipelines(), 2u);

  // DifferenceSnapshot shares the same cache.
  ASSERT_TRUE(session->DifferenceSnapshot().ok());
  EXPECT_EQ(session->num_rebuilds(), 2u);
}

TEST(MinerSessionTest, PipelineCacheEvictsFifo) {
  SessionOptions options;
  options.max_cached_pipelines = 1;
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), options);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  for (const double alpha : {1.0, 2.0, 1.0}) {
    request.alpha = alpha;
    ASSERT_TRUE(session->Mine(request).ok());
    EXPECT_EQ(session->num_cached_pipelines(), 1u);
  }
  EXPECT_EQ(session->num_rebuilds(), 3u);
}

// One weight update of a stream.
struct StreamUpdate {
  UpdateSide side;
  VertexId u;
  VertexId v;
  double delta;
};

// Fig. 1 as a stream, plus a G2 pair whose updates cancel to zero before the
// first flush and so must leave no edge behind.
std::vector<StreamUpdate> Fig1Stream() {
  std::vector<StreamUpdate> stream;
  for (const Edge& e : Fig1G1().UndirectedEdges()) {
    stream.push_back({UpdateSide::kG1, e.u, e.v, e.weight});
  }
  for (const Edge& e : Fig1G2().UndirectedEdges()) {
    stream.push_back({UpdateSide::kG2, e.u, e.v, e.weight});
  }
  stream.push_back({UpdateSide::kG2, 1, 4, 3.0});
  stream.push_back({UpdateSide::kG2, 1, 4, -3.0});
  return stream;
}

// Random updates on both sides; pairs repeat, so deltas accumulate.
std::vector<StreamUpdate> RandomStream(VertexId n, int updates) {
  Rng rng(99);
  std::vector<StreamUpdate> stream;
  for (int i = 0; i < updates; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (v >= u) ++v;
    const double w = rng.Uniform(0.1, 3.0);
    stream.push_back(
        {rng.Bernoulli(0.5) ? UpdateSide::kG1 : UpdateSide::kG2, u, v, w});
  }
  return stream;
}

// Feeds `stream` to a streaming session and checks it against a batch
// session over the same accumulated graphs: α-scaled difference snapshots,
// lazily prepared pipelines (num_rebuilds flat across repeated queries) and
// the mined DCSAD answer.
void ExpectStreamMatchesBatch(VertexId n,
                              const std::vector<StreamUpdate>& stream) {
  Result<MinerSession> streaming = MinerSession::CreateStreaming(n);
  ASSERT_TRUE(streaming.ok());
  GraphBuilder builder1(n), builder2(n);
  for (const StreamUpdate& update : stream) {
    ASSERT_TRUE(
        streaming->ApplyUpdate(update.side, update.u, update.v, update.delta)
            .ok());
    GraphBuilder& builder =
        update.side == UpdateSide::kG1 ? builder1 : builder2;
    ASSERT_TRUE(builder.AddEdge(update.u, update.v, update.delta).ok());
  }
  Result<Graph> g1 = builder1.Build();
  Result<Graph> g2 = builder2.Build();
  ASSERT_TRUE(g1.ok() && g2.ok());

  for (const double alpha : {1.0, 2.0}) {
    Result<Graph> snapshot = streaming->DifferenceSnapshot(alpha);
    Result<Graph> expected = BuildDifferenceGraph(*g1, *g2, alpha);
    ASSERT_TRUE(snapshot.ok() && expected.ok());
    ASSERT_EQ(snapshot->NumVertices(), expected->NumVertices());
    ASSERT_EQ(snapshot->NumEdges(), expected->NumEdges()) << "alpha " << alpha;
    for (const Edge& e : expected->UndirectedEdges()) {
      EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(e.u, e.v), e.weight)
          << "alpha " << alpha;
    }
  }
  EXPECT_EQ(streaming->num_rebuilds(), 2u);
  ASSERT_TRUE(streaming->DifferenceSnapshot(1.0).ok());
  ASSERT_TRUE(streaming->DifferenceSnapshot(2.0).ok());
  EXPECT_EQ(streaming->num_rebuilds(), 2u) << "snapshots must be reused";

  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> streamed = streaming->Mine(request);
  Result<MinerSession> batch =
      MinerSession::Create(std::move(g1).value(), std::move(g2).value());
  ASSERT_TRUE(batch.ok());
  Result<MiningResponse> batched = batch->Mine(request);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(streaming->num_rebuilds(), 2u);
  ASSERT_EQ(streamed->average_degree.size(), batched->average_degree.size());
  ASSERT_FALSE(streamed->average_degree.empty());
  EXPECT_EQ(streamed->average_degree[0].vertices,
            batched->average_degree[0].vertices);
  EXPECT_NEAR(streamed->average_degree[0].value,
              batched->average_degree[0].value, 1e-9);
}

TEST(MinerSessionTest, StreamingUpdatesMatchBatchSession) {
  {
    SCOPED_TRACE("Fig. 1 stream");
    ExpectStreamMatchesBatch(5, Fig1Stream());
  }
  {
    SCOPED_TRACE("random stream");
    ExpectStreamMatchesBatch(60, RandomStream(60, 400));
  }
}

TEST(MinerSessionTest, ApplyUpdateRejectsBadInput) {
  Result<MinerSession> session = MinerSession::CreateStreaming(4);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 1, 1, 1.0)
                  .IsInvalidArgument());
  EXPECT_EQ(session->ApplyUpdate(UpdateSide::kG2, 0, 9, 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(session
                  ->ApplyUpdate(UpdateSide::kG1, 0, 1,
                                std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_EQ(session->num_updates(), 0u);
}

TEST(MinerSessionTest, ApplyUpdateRepatchesCachedPipelines) {
  // Default crossover: a 1-pair batch against Fig. 1's 11 edges takes the
  // O(Δ) patch path — the cached pipeline is republished under the new
  // fingerprint, so the post-update mine *hits* with the patched content.
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);

  // Strengthen the (0,1) contrast: GD weight goes +4 -> +6.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.0).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session->num_rebuilds(), 1u)
      << "a patched flush must not rematerialize the difference";
  EXPECT_TRUE(after->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_update_patches(), 1u);
  EXPECT_EQ(session->num_update_rebuilds(), 0u);
  EXPECT_EQ(session->num_republished_entries(), 1u);
  EXPECT_EQ(after->telemetry.update_patches, 1u);
  EXPECT_EQ(after->telemetry.patched_entries_republished, 1u);
  Result<Graph> snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(0, 1), 6.0);

  // An exact cancellation drops the edge entirely: GD(0,3) = 2-1 = +1, so a
  // -1 delta on the G2 side zeroes the difference... to -0? No: the G2 edge
  // weight 2 becomes 1, equal to G1's 1, and the difference edge vanishes.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 3, -1.0).ok());
  snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HasEdge(0, 3));
}

TEST(MinerSessionTest, ApplyUpdateWithPatchingDisabledForcesARebuild) {
  // patch_rebuild_ratio = 0 pins the pre-patch behavior: the update
  // invalidates copy-on-write and the next mine rebuilds cold.
  SessionOptions options;
  options.patch_rebuild_ratio = 0.0;
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), options);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);

  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.0).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session->num_rebuilds(), 2u) << "update must force a rebuild";
  EXPECT_FALSE(after->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_update_patches(), 0u);
  EXPECT_EQ(session->num_update_rebuilds(), 1u);
  EXPECT_EQ(after->telemetry.update_rebuilds, 1u);
  Result<Graph> snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(0, 1), 6.0);
}

TEST(MinerSessionTest, WarmStartTracksAcrossUpdates) {
  // A strong planted 4-clique in G2 over background noise.
  std::vector<std::tuple<VertexId, VertexId, double>> g2_edges;
  const std::vector<VertexId> planted{10, 11, 12, 13};
  for (size_t i = 0; i < planted.size(); ++i) {
    for (size_t j = i + 1; j < planted.size(); ++j) {
      g2_edges.emplace_back(planted[i], planted[j], 5.0);
    }
  }
  g2_edges.emplace_back(0, 1, 1.0);
  g2_edges.emplace_back(2, 3, 0.5);
  Result<MinerSession> session =
      MinerSession::Create(MakeGraph(20, {}), MakeGraph(20, g2_edges));
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.warm_start = true;
  Result<MiningResponse> first = session->Mine(request);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->graph_affinity.size(), 1u);
  EXPECT_EQ(first->graph_affinity[0].vertices, planted);
  // No previous solution existed, so no warm seed was attempted.
  EXPECT_FALSE(first->telemetry.warm_start_used);

  // Drift the story slightly; the warm seed from the previous answer is
  // attempted and the clique is still recovered.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 10, 11, 0.25).ok());
  Result<MiningResponse> second = session->Mine(request);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->graph_affinity.size(), 1u);
  EXPECT_TRUE(second->telemetry.warm_start_used);
  EXPECT_EQ(second->graph_affinity[0].vertices, planted);

  // A stronger story overlapping the old one emerges; the warm-started
  // query follows the drift.
  const std::vector<VertexId> emerging{13, 14, 15, 16};
  for (size_t i = 0; i < emerging.size(); ++i) {
    for (size_t j = i + 1; j < emerging.size(); ++j) {
      ASSERT_TRUE(session
                      ->ApplyUpdate(UpdateSide::kG2, emerging[i],
                                    emerging[j], 8.0)
                      .ok());
    }
  }
  Result<MiningResponse> drifted = session->Mine(request);
  ASSERT_TRUE(drifted.ok());
  ASSERT_EQ(drifted->graph_affinity.size(), 1u);
  EXPECT_TRUE(drifted->telemetry.warm_start_used);
  EXPECT_EQ(drifted->graph_affinity[0].vertices, emerging);

  session->ClearWarmStart();
  Result<MiningResponse> third = session->Mine(request);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->telemetry.warm_start_used);
}

TEST(MinerSessionTest, TopKRequestsRankAndRespectDisjointness) {
  // Two vertex-disjoint positive cliques of different strength.
  std::vector<std::tuple<VertexId, VertexId, double>> g2_edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = u + 1; v < 3; ++v) g2_edges.emplace_back(u, v, 6.0);
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = u + 1; v < 7; ++v) g2_edges.emplace_back(u, v, 3.0);
  }
  Result<MinerSession> session =
      MinerSession::Create(MakeGraph(8, {}), MakeGraph(8, g2_edges));
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kBoth;
  request.top_k = 2;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->graph_affinity.size(), 2u);
  EXPECT_EQ(response->graph_affinity[0].vertices,
            (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(response->graph_affinity[1].vertices,
            (std::vector<VertexId>{4, 5, 6}));
  EXPECT_GE(response->graph_affinity[0].value,
            response->graph_affinity[1].value);
  ASSERT_EQ(response->average_degree.size(), 2u);
  EXPECT_EQ(response->average_degree[0].vertices,
            (std::vector<VertexId>{0, 1, 2}));
}

TEST(MinerSessionTest, MemoizedResponseGivesWayToAnUpdate) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;
  ASSERT_TRUE(session->Mine(request).ok());
  Result<MiningResponse> repeat = session->Mine(request);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->telemetry.response_memo_hit);

  // The patch path republishes the pipeline under the new fingerprint; the
  // memo does not follow it.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.5).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->telemetry.response_memo_hit);

  // Fig1G2 with (0,1) raised from 4.0 to 6.5.
  Result<MinerSession> fresh = MinerSession::Create(
      Fig1G1(), MakeGraph(5, {{0, 1, 6.5},
                              {1, 2, 5.0},
                              {0, 3, 2.0},
                              {2, 3, 1.0},
                              {3, 4, 6.0},
                              {0, 4, 1.0}}));
  ASSERT_TRUE(fresh.ok());
  Result<MiningResponse> expected = fresh->Mine(request);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(SerializeSubgraphs(*after), SerializeSubgraphs(*expected));
  EXPECT_EQ(after->telemetry.initializations,
            expected->telemetry.initializations);
  EXPECT_NE(SerializeSubgraphs(*after), SerializeSubgraphs(*repeat));
}

// A substantial session input: an empty G1 against a random signed G2, so
// the difference graph has hundreds of candidate seeds to shard.
std::pair<Graph, Graph> RandomSessionGraphs() {
  Rng rng(31);
  Result<Graph> g2 = RandomSignedGraph(/*n=*/250, /*m=*/2000,
                                       /*positive_fraction=*/0.7,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(g2.ok());
  return {MakeGraph(250, {}), std::move(g2).value()};
}

TEST(MinerSessionTest, IntraRequestParallelismKeepsMinedSubgraphsIdentical) {
  auto [g1, g2] = RandomSessionGraphs();
  SessionOptions sequential_options;
  sequential_options.max_parallelism = 1;
  Result<MinerSession> sequential =
      MinerSession::Create(g1, g2, sequential_options);
  ASSERT_TRUE(sequential.ok());
  // Auto parallelism takes the whole budget: 4 seed shards.
  SessionOptions parallel_options;
  parallel_options.max_parallelism = 4;
  Result<MinerSession> parallel =
      MinerSession::Create(g1, g2, parallel_options);
  ASSERT_TRUE(parallel.ok());

  std::vector<MiningRequest> requests(2);
  requests[0].measure = Measure::kGraphAffinity;
  requests[1].measure = Measure::kBoth;
  requests[1].alpha = 2.0;
  for (MiningRequest& request : requests) {
    request.ga_solver.parallelism = 0;  // auto
    Result<MiningResponse> expected = sequential->Mine(request);
    Result<MiningResponse> actual = parallel->Mine(request);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(SerializeSubgraphs(*actual), SerializeSubgraphs(*expected))
        << "alpha " << request.alpha;
    EXPECT_FALSE(actual->graph_affinity.empty()) << "alpha " << request.alpha;
  }
}

TEST(MinerSessionTest, ExplicitIntraParallelismOnSingleMine) {
  auto [g1, g2] = RandomSessionGraphs();
  Result<MinerSession> sequential = MinerSession::Create(g1, g2);
  ASSERT_TRUE(sequential.ok());

  SessionOptions options;
  options.max_parallelism = 4;
  Result<MinerSession> parallel = MinerSession::Create(g1, g2, options);
  ASSERT_TRUE(parallel.ok());

  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  Result<MiningResponse> expected = sequential->Mine(request);
  ASSERT_TRUE(expected.ok());

  for (const uint32_t threads : {2u, 4u, 7u}) {
    MiningRequest parallel_request = request;
    parallel_request.ga_solver.parallelism = threads;
    Result<MiningResponse> actual = parallel->Mine(parallel_request);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(SerializeSubgraphs(*actual), SerializeSubgraphs(*expected))
        << threads << " threads";
  }
}

std::atomic<int> g_counting_solver_runs{0};

// Counts its runs; answers with the heaviest positive edge of GD.
Result<std::vector<RankedSubgraph>> CountingSolver(
    const SolverContext& context, const MiningRequest& request,
    MiningTelemetry* telemetry) {
  (void)request;
  (void)telemetry;
  ++g_counting_solver_runs;
  RankedSubgraph best;
  for (const Edge& e : context.difference->UndirectedEdges()) {
    if (e.weight > best.value) {
      best.value = e.weight;
      best.vertices = {e.u, e.v};
    }
  }
  return std::vector<RankedSubgraph>{best};
}

TEST(MinerSessionTest, WarmStartsAndCustomSolversAlwaysSolve) {
  static const bool registered =
      SolverRegistry::Global().Register("memo-counting", &CountingSolver).ok();
  ASSERT_TRUE(registered);
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());

  MiningRequest warm;
  warm.measure = Measure::kGraphAffinity;
  warm.warm_start = true;
  for (int i = 0; i < 3; ++i) {
    Result<MiningResponse> response = session->Mine(warm);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->telemetry.response_memo_hit);
    EXPECT_EQ(response->telemetry.warm_start_used, i > 0);
  }

  // A custom solver on either measure keeps the whole request unmemoized.
  MiningRequest custom_ga;
  custom_ga.measure = Measure::kGraphAffinity;
  custom_ga.ga_solver_name = "memo-counting";
  MiningRequest custom_ad;
  custom_ad.measure = Measure::kBoth;
  custom_ad.ad_solver_name = "memo-counting";
  g_counting_solver_runs = 0;
  for (int i = 0; i < 3; ++i) {
    for (const MiningRequest* request : {&custom_ga, &custom_ad}) {
      Result<MiningResponse> response = session->Mine(*request);
      ASSERT_TRUE(response.ok());
      EXPECT_FALSE(response->telemetry.response_memo_hit);
    }
  }
  EXPECT_EQ(g_counting_solver_runs.load(), 6);

  // A custom solver name on a measure the request does not mine is never
  // dispatched, so the builtin-only request is memoized.
  MiningRequest ad_only = custom_ga;
  ad_only.measure = Measure::kAverageDegree;
  ASSERT_TRUE(session->Mine(ad_only).ok());
  Result<MiningResponse> repeat = session->Mine(ad_only);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->telemetry.response_memo_hit);
  EXPECT_EQ(g_counting_solver_runs.load(), 6);
}

TEST(MinerSessionTest, FailedAndCancelledSolvesAreNeverMemoized) {
  struct DisarmOnExit {
    ~DisarmOnExit() { FaultInjection::Global().Reset(); }
  } disarm;
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;

  FaultSpec build_fault;
  build_fault.site = fault_sites::kCacheBuild;
  build_fault.times = 1;
  ASSERT_TRUE(FaultInjection::Global().Arm(build_fault).ok());
  EXPECT_FALSE(session->Mine(request).ok());
  FaultInjection::Global().Reset();
  Result<MiningResponse> solved = session->Mine(request);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->telemetry.response_memo_hit);

  request.alpha = 2.0;
  CancelToken cancelled;
  cancelled.Cancel();
  EXPECT_EQ(session->Mine(request, &cancelled).status().code(),
            StatusCode::kCancelled);
  Result<MiningResponse> after_cancel = session->Mine(request);
  ASSERT_TRUE(after_cancel.ok());
  EXPECT_FALSE(after_cancel->telemetry.response_memo_hit);

  // Now memoized — yet a token fired before dispatch still cancels.
  EXPECT_EQ(session->Mine(request, &cancelled).status().code(),
            StatusCode::kCancelled);
  Result<MiningResponse> memoized = session->Mine(request);
  ASSERT_TRUE(memoized.ok());
  EXPECT_TRUE(memoized->telemetry.response_memo_hit);
  EXPECT_EQ(SerializeSubgraphs(*memoized), SerializeSubgraphs(*after_cancel));
}

TEST(MinerSessionTest, KernelCountersIncludeTheRequestsOwnSolve) {
  const CoauthorData data = [] {
    Rng rng(99);
    CoauthorConfig config;
    config.num_authors = 200;
    config.emerging_sizes = {5};
    config.disappearing_sizes = {};
    Result<CoauthorData> generated = GenerateCoauthorData(config, &rng);
    DCS_CHECK(generated.ok());
    return std::move(generated).value();
  }();
  Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  ASSERT_EQ(request.ga_solver.parallelism, 1u);
  // Solved, then served from the memo: both read the counters last.
  for (const bool memo_hit : {false, true}) {
    Result<MiningResponse> response = session->Mine(request);
    const KernelCounters after = KernelCountersSnapshot();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->telemetry.response_memo_hit, memo_hit);
    EXPECT_EQ(response->telemetry.kernel_simd_calls, after.avx2_calls);
    EXPECT_EQ(response->telemetry.kernel_scalar_calls, after.scalar_calls);
  }
}

}  // namespace
}  // namespace dcs
