// Determinism of the seed-sharded parallel NewSEA driver: for every thread
// count the affinity, support and embedding must equal the sequential run
// bit for bit (the reduction keeps (max affinity, earliest μ-order seed),
// and an AffinityState reset is exact, so each seed's descent is a pure
// function of the graph and the seed).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/newsea.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

const uint32_t kThreadCounts[] = {1, 2, 4, 7, 8};

// Runs RunNewSea at every thread count (transient pools) and asserts the
// full result triple is bit-identical to the sequential reference.
void ExpectBitIdenticalAcrossThreadCounts(const Graph& gd_plus) {
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions sequential_options;  // parallelism = 1
  Result<DcsgaResult> reference =
      RunNewSea(gd_plus, bounds, sequential_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const uint32_t threads : kThreadCounts) {
    DcsgaOptions options;
    options.parallelism = threads;
    Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(run->affinity),
              std::bit_cast<uint64_t>(reference->affinity))
        << threads << " threads";
    EXPECT_EQ(run->support, reference->support) << threads << " threads";
    EXPECT_EQ(run->x.x, reference->x.x) << threads << " threads";
    // Every candidate seed is either descended from or pruned.
    EXPECT_EQ(run->initializations + run->pruned_seeds,
              static_cast<uint64_t>(gd_plus.NumVertices()))
        << threads << " threads";
  }
}

TEST(NewSeaParallelTest, BitIdenticalOnRandomSignedGraphs) {
  for (const uint64_t seed : {7u, 19u, 23u}) {
    Rng rng(seed);
    Result<Graph> gd =
        RandomSignedGraph(/*n=*/300, /*m=*/2400, /*positive_fraction=*/0.7,
                          /*magnitude_lo=*/0.5, /*magnitude_hi=*/3.0, &rng);
    ASSERT_TRUE(gd.ok());
    ExpectBitIdenticalAcrossThreadCounts(gd->PositivePart());
  }
}

// The sparse signed graphs RandomSignedGraph(60, 150, 0.6, 0.5, 4.0) of
// these seeds hold seeds past the sequential stop whose μ equals the answer
// and whose descents round a few ulps above it (seed 10: 3.0615369904057417
// against 3.0615369904057408). A driver that descends them and keeps the
// larger affinity leaves the sequential answer; the committed-prefix rule
// never lets them into the winner walk.
const uint64_t kPastTheStopSeeds[] = {7, 10, 44, 121, 131, 207};

TEST(NewSeaParallelTest, BitIdenticalWhereSeedsPastTheStopRoundHigher) {
  for (const uint64_t seed : kPastTheStopSeeds) {
    Rng rng(seed);
    Result<Graph> gd = RandomSignedGraph(/*n=*/60, /*m=*/150,
                                         /*positive_fraction=*/0.6,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/4.0, &rng);
    ASSERT_TRUE(gd.ok());
    // Shard timing differs run to run; repeat to give every interleaving a
    // chance to show.
    for (int repeat = 0; repeat < 5; ++repeat) {
      SCOPED_TRACE("graph seed " + std::to_string(seed) + " repeat " +
                   std::to_string(repeat));
      ExpectBitIdenticalAcrossThreadCounts(gd->PositivePart());
    }
  }
}

TEST(NewSeaParallelTest, BitIdenticalOnGeneratorGraph) {
  Rng rng(42);
  CoauthorConfig config;
  config.num_authors = 800;
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  ASSERT_TRUE(data.ok());
  Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  ExpectBitIdenticalAcrossThreadCounts(gd->PositivePart());
}

TEST(NewSeaParallelTest, TieBetweenSeedsKeepsTheEarliestOrderWinner) {
  // Two disjoint triangles with identical weights: six seeds share one μ and
  // two optimal cliques share one affinity. Sequential NewSEA keeps the
  // first winner in μ-order; every parallel run must pick the same one even
  // though both triangles are descended from on different shards.
  const Graph gd_plus = MakeGraph(6, {{0, 1, 2.0},
                                      {1, 2, 2.0},
                                      {0, 2, 2.0},
                                      {3, 4, 2.0},
                                      {4, 5, 2.0},
                                      {3, 5, 2.0}});
  Result<DcsgaResult> reference = RunNewSea(gd_plus);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->affinity, 0.0);
  ASSERT_EQ(reference->support.size(), 3u);
  ExpectBitIdenticalAcrossThreadCounts(gd_plus);
}

TEST(NewSeaParallelTest, SharedPoolMatchesTransientPool) {
  Rng rng(5);
  Result<Graph> gd =
      RandomSignedGraph(200, 1500, 0.6, 0.5, 2.5, &rng);
  ASSERT_TRUE(gd.ok());
  const Graph gd_plus = gd->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);

  Result<DcsgaResult> reference = RunNewSea(gd_plus, bounds, {});
  ASSERT_TRUE(reference.ok());

  ThreadPool pool(3);
  DcsgaOptions options;
  options.parallelism = 0;  // auto: take the pool's whole concurrency
  Result<DcsgaResult> pooled = RunNewSea(gd_plus, bounds, options, &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->affinity, reference->affinity);
  EXPECT_EQ(pooled->support, reference->support);
  EXPECT_EQ(pooled->x.x, reference->x.x);
}

TEST(NewSeaParallelTest, ParallelRunsStayDeterministicAcrossRepeats) {
  Rng rng(11);
  Result<Graph> gd = RandomSignedGraph(250, 2000, 0.65, 0.5, 3.0, &rng);
  ASSERT_TRUE(gd.ok());
  const Graph gd_plus = gd->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions options;
  options.parallelism = 4;
  Result<DcsgaResult> first = RunNewSea(gd_plus, bounds, options);
  ASSERT_TRUE(first.ok());
  for (int repeat = 0; repeat < 3; ++repeat) {
    Result<DcsgaResult> again = RunNewSea(gd_plus, bounds, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->affinity, first->affinity);
    EXPECT_EQ(again->support, first->support);
    EXPECT_EQ(again->x.x, first->x.x);
  }
}

TEST(NewSeaParallelTest, ValidationSkipFlagHonoursTheContract) {
  // assume_nonnegative skips the precondition scan — same answer on a valid
  // GD+ — while the default path still rejects a signed graph.
  const Graph gd_plus = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 3.0}});
  DcsgaOptions skip;
  skip.assume_nonnegative = true;
  Result<DcsgaResult> with_skip = RunNewSea(gd_plus, skip);
  Result<DcsgaResult> without = RunNewSea(gd_plus);
  ASSERT_TRUE(with_skip.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with_skip->affinity, without->affinity);
  EXPECT_EQ(with_skip->support, without->support);

  const Graph signed_graph = MakeGraph(3, {{0, 1, 1.0}, {1, 2, -1.0}});
  EXPECT_FALSE(RunNewSea(signed_graph).ok());
  EXPECT_FALSE(RunDcsgaAllInits(signed_graph).ok());
}

TEST(NewSeaParallelTest, CollectCliquesFallsBackToSequential) {
  // The clique harvest depends on which seeds pruning skipped, so the
  // parallel driver refuses it and runs the exact sequential loop instead.
  const Graph gd_plus = MakeGraph(6, {{0, 1, 3.0},
                                      {1, 2, 3.0},
                                      {0, 2, 3.0},
                                      {3, 4, 1.0},
                                      {4, 5, 1.0},
                                      {3, 5, 1.0}});
  DcsgaOptions sequential;
  sequential.collect_cliques = true;
  Result<DcsgaResult> reference = RunNewSea(gd_plus, sequential);
  ASSERT_TRUE(reference.ok());

  DcsgaOptions parallel = sequential;
  parallel.parallelism = 4;
  Result<DcsgaResult> run = RunNewSea(gd_plus, parallel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->affinity, reference->affinity);
  EXPECT_EQ(run->initializations, reference->initializations);
  ASSERT_EQ(run->cliques.size(), reference->cliques.size());
  for (size_t i = 0; i < run->cliques.size(); ++i) {
    EXPECT_EQ(run->cliques[i].members, reference->cliques[i].members);
  }
}

TEST(NewSeaParallelTest, PreCancelledTokenAbortsWithCancelled) {
  // The cooperative-cancellation hook of the seed loop, hit deterministically
  // by arming the token before the solve: both the sequential loop and every
  // shard observe it at their first check and abort without a result.
  Rng rng(7);
  Result<Graph> gd =
      RandomSignedGraph(/*n=*/200, /*m=*/1500, /*positive_fraction=*/0.7,
                        /*magnitude_lo=*/0.5, /*magnitude_hi=*/3.0, &rng);
  ASSERT_TRUE(gd.ok());
  const Graph gd_plus = gd->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);

  CancelToken token;
  token.Cancel();
  for (const uint32_t threads : kThreadCounts) {
    DcsgaOptions options;
    options.parallelism = threads;
    options.cancel = &token;
    Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
    ASSERT_FALSE(run.ok()) << threads << " threads";
    EXPECT_TRUE(run.status().IsCancelled()) << threads << " threads";
  }
}

TEST(NewSeaParallelTest, UnfiredTokenKeepsResultsBitIdentical) {
  // Threading a live-but-silent token through the solve must not perturb
  // anything — the uncancelled path stays the exact sequential answer.
  Rng rng(19);
  Result<Graph> gd =
      RandomSignedGraph(/*n=*/200, /*m=*/1500, /*positive_fraction=*/0.7,
                        /*magnitude_lo=*/0.5, /*magnitude_hi=*/3.0, &rng);
  ASSERT_TRUE(gd.ok());
  const Graph gd_plus = gd->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);

  Result<DcsgaResult> reference = RunNewSea(gd_plus, bounds, DcsgaOptions{});
  ASSERT_TRUE(reference.ok());
  CancelToken token;  // never fired
  for (const uint32_t threads : kThreadCounts) {
    DcsgaOptions options;
    options.parallelism = threads;
    options.cancel = &token;
    Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->affinity, reference->affinity) << threads << " threads";
    EXPECT_EQ(run->support, reference->support) << threads << " threads";
    EXPECT_EQ(run->x.x, reference->x.x) << threads << " threads";
  }
}

}  // namespace
}  // namespace dcs
