// Long randomized streaming soak: hundreds of mixed update batches (weight
// drift, deletes-to-zero, sign flips, structural churn on both sides)
// through the O(Δ) patch path, each round cross-checked bit-for-bit against
// a from-scratch session — the heavyweight sibling of
// tests/api/streaming_update_test.cc, under the `stress` ctest label.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "api/pipeline_cache.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

using ::dcs::testing::SerializeSubgraphs;

TEST(StreamingEquivalenceStressTest, LongMixedStreamStaysBitIdentical) {
  Rng rng(424243);
  const VertexId n = 120;
  Result<MinerSession> session = MinerSession::CreateStreaming(n);
  ASSERT_TRUE(session.ok());
  std::map<uint64_t, double> ledger_g1, ledger_g2;

  auto apply = [&](UpdateSide side, VertexId u, VertexId v, double delta) {
    ASSERT_TRUE(session->ApplyUpdate(side, u, v, delta).ok());
    auto& ledger = side == UpdateSide::kG1 ? ledger_g1 : ledger_g2;
    ledger[PackVertexPair(u, v)] += delta;
  };
  auto random_pair = [&](VertexId* u, VertexId* v) {
    *u = static_cast<VertexId>(rng.NextBounded(n));
    *v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (*v >= *u) ++*v;
  };
  auto build = [&](const std::map<uint64_t, double>& ledger) {
    GraphBuilder builder(n);
    for (const auto& [key, weight] : ledger) {
      builder.AddEdgeUnchecked(static_cast<VertexId>(key >> 32),
                               static_cast<VertexId>(key & 0xFFFFFFFFull),
                               weight);
    }
    Result<Graph> graph = builder.Build();
    DCS_CHECK(graph.ok());
    return std::move(graph).value();
  };

  // Bulk load.
  for (int i = 0; i < 900; ++i) {
    VertexId u, v;
    random_pair(&u, &v);
    apply(rng.Bernoulli(0.5) ? UpdateSide::kG1 : UpdateSide::kG2, u, v,
          rng.Uniform(-2.0, 3.0));
  }

  std::vector<MiningRequest> requests(3);
  requests[0].measure = Measure::kBoth;
  requests[1].measure = Measure::kBoth;
  requests[1].flip = true;
  requests[2].measure = Measure::kBoth;
  requests[2].discretize = DiscretizeSpec{};

  for (int round = 0; round < 60; ++round) {
    const int batch = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < batch; ++i) {
      VertexId u, v;
      random_pair(&u, &v);
      const UpdateSide side =
          rng.Bernoulli(0.4) ? UpdateSide::kG1 : UpdateSide::kG2;
      const auto& ledger =
          side == UpdateSide::kG1 ? ledger_g1 : ledger_g2;
      const auto it = ledger.find(PackVertexPair(u, v));
      double delta;
      const uint64_t kind = rng.NextBounded(4);
      if (kind == 0 && it != ledger.end()) {
        delta = -it->second;  // delete-to-zero
      } else if (kind == 1 && it != ledger.end()) {
        delta = -2.0 * it->second;  // sign flip
      } else {
        delta = rng.Uniform(-2.0, 2.0);
      }
      apply(side, u, v, delta);
    }
    // Cross-check one rotating request per round (all three shapes get
    // exercised many times over the soak).
    const MiningRequest& request = requests[round % requests.size()];
    Result<MiningResponse> streamed = session->Mine(request);
    ASSERT_TRUE(streamed.ok());
    Result<MinerSession> control =
        MinerSession::Create(build(ledger_g1), build(ledger_g2));
    ASSERT_TRUE(control.ok());
    Result<MiningResponse> expected = control->Mine(request);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(SerializeSubgraphs(*streamed), SerializeSubgraphs(*expected))
        << "round " << round;
  }
  // The soak must have exercised the patch path heavily.
  EXPECT_GT(session->num_update_patches(), 30u);
  EXPECT_GT(session->num_republished_entries(), 0u);
}

TEST(StreamingEquivalenceStressTest, ConcurrentDescentMemoFillsStayBitIdentical) {
  // Two tenants over equal graphs share one cache entry per round, so their
  // jobs — on two executors, the top-1 solves sharded on a shared pool —
  // replay from and record into one descent memo at the same time, then
  // carry it across the next fenced batch. Every response must equal a
  // sequential from-scratch session's.
  Rng rng(515151);
  const VertexId n = 100;
  std::map<uint64_t, double> ledger_g1, ledger_g2;
  auto build = [&](const std::map<uint64_t, double>& ledger) {
    GraphBuilder builder(n);
    for (const auto& [key, weight] : ledger) {
      builder.AddEdgeUnchecked(static_cast<VertexId>(key >> 32),
                               static_cast<VertexId>(key & 0xFFFFFFFFull),
                               weight);
    }
    Result<Graph> graph = builder.Build();
    DCS_CHECK(graph.ok());
    return std::move(graph).value();
  };
  auto random_pair = [&](VertexId* u, VertexId* v) {
    *u = static_cast<VertexId>(rng.NextBounded(n));
    *v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (*v >= *u) ++*v;
  };
  for (int i = 0; i < 600; ++i) {
    VertexId u, v;
    random_pair(&u, &v);
    auto& ledger = rng.Bernoulli(0.4) ? ledger_g1 : ledger_g2;
    ledger[PackVertexPair(u, v)] += rng.Uniform(0.25, 3.0);
  }

  MiningServiceOptions options;
  options.num_executors = 2;
  options.shared_cache = std::make_shared<PipelineCache>();
  options.worker_pool = std::make_shared<ThreadPool>(2);
  MiningService service(options);
  SessionOptions session_options;
  session_options.max_parallelism = 3;
  for (int t = 0; t < 2; ++t) {
    Result<MinerSession> session = MinerSession::Create(
        build(ledger_g1), build(ledger_g2), session_options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(service.AddTenant(std::move(session).value()).ok());
  }

  // Distinct response-memo keys, one GA pipeline: every job solves.
  std::vector<MiningRequest> requests(4);
  requests[0].measure = Measure::kGraphAffinity;
  requests[0].ga_solver.parallelism = 0;  // the session's whole budget
  requests[1].measure = Measure::kBoth;
  requests[1].ga_solver.parallelism = 3;
  requests[2].measure = Measure::kGraphAffinity;
  requests[2].top_k = 3;
  requests[3].measure = Measure::kGraphAffinity;
  requests[3].top_k = 2;
  requests[3].disjoint = false;

  for (int round = 0; round < 20; ++round) {
    if (round > 0) {
      for (int i = 0; i < 4; ++i) {
        VertexId u, v;
        random_pair(&u, &v);
        const UpdateSide side =
            rng.Bernoulli(0.4) ? UpdateSide::kG1 : UpdateSide::kG2;
        const double delta = rng.Uniform(-1.5, 2.0);
        auto& ledger = side == UpdateSide::kG1 ? ledger_g1 : ledger_g2;
        ledger[PackVertexPair(u, v)] += delta;
        for (TenantId t = 0; t < 2; ++t) {
          ASSERT_TRUE(service.ApplyUpdate(t, side, u, v, delta).ok());
        }
      }
    }
    std::vector<std::pair<JobId, size_t>> jobs;
    for (size_t r = 0; r < requests.size(); ++r) {
      const TenantId tenant = static_cast<TenantId>(r % 2);
      Result<JobId> job = service.Submit(tenant, requests[r]);
      ASSERT_TRUE(job.ok());
      jobs.emplace_back(*job, r);
    }
    Result<MinerSession> control =
        MinerSession::Create(build(ledger_g1), build(ledger_g2));
    ASSERT_TRUE(control.ok());
    for (const auto& [job, r] : jobs) {
      Result<JobStatus> status = service.Wait(job);
      ASSERT_TRUE(status.ok());
      ASSERT_EQ(status->state, JobState::kDone) << status->failure.ToString();
      MiningRequest sequential = requests[r];
      sequential.ga_solver.parallelism = 1;
      Result<MiningResponse> expected = control->Mine(sequential);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(SerializeSubgraphs(status->response),
                SerializeSubgraphs(*expected))
          << "round " << round << " request #" << r;
    }
  }
  // The last round's jobs replayed descents carried across its batch.
  uint64_t replays = 0;
  for (const auto& [key, pipeline] : options.shared_cache->SnapshotsFor(
           PipelineGraphFingerprint(build(ledger_g1), build(ledger_g2)))) {
    if (pipeline->descent_memo != nullptr) {
      replays += pipeline->descent_memo->replays();
    }
  }
  EXPECT_GT(replays, 0u);
}

}  // namespace
}  // namespace dcs
