#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/artifact_store.h"
#include "api/datasets.h"
#include "api/job_journal.h"
#include "api/miner_session.h"
#include "api/mining_service.h"
#include "api/pipeline_cache.h"
#include "core/dcs_greedy.h"
#include "core/kernels.h"
#include "core/newsea.h"
#include "core/topk.h"
#include "densest/peel.h"
#include "gate.h"
#include "graph/csr_patcher.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dcs::Graph;
using dcs::VertexId;

// A library call the benchmark depends on failed: not a measurement, so the
// run stops without a result.
[[noreturn]] void Fatal(const std::string& what, const dcs::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::_Exit(3);
}

void CheckOk(const dcs::Status& status, const char* what) {
  if (!status.ok()) Fatal(what, status);
}

template <typename T>
T Unwrap(dcs::Result<T> result, const char* what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

void ReportFailure(const dcs::Status& status) {
  std::fprintf(stderr, "perfbench: request failed: %s\n",
               status.ToString().c_str());
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void Diverged(const std::string& where, std::vector<std::string>* violations) {
  violations->push_back(where +
                        ": re-run layer call disagrees with the response");
}

dcs::SessionOptions SequentialSession() {
  dcs::SessionOptions options;
  options.max_parallelism = 1;
  return options;
}

// Times RunDcsGreedy on `gd` under `parent`, then re-runs its inner calls
// (GreedyPeel on GD, GD+ extraction, GreedyPeel on GD+) as its children.
dcs::DcsadResult TracedDcsGreedy(const Graph& gd, uint64_t request,
                                 uint64_t parent, Tracer* tracer,
                                 Counters* counters) {
  dcs::DcsadResult greedy;
  const uint64_t span = tracer->Time("core.dcsgreedy", request, parent, [&] {
    greedy = Unwrap(dcs::RunDcsGreedy(gd), "RunDcsGreedy");
  });
  Graph gd_plus;
  tracer->Time("densest.peel", request, span, [&] { dcs::GreedyPeel(gd); });
  tracer->Time("graph.positive_part", request, span,
               [&] { gd_plus = gd.PositivePart(); });
  tracer->Time("densest.peel", request, span,
               [&] { dcs::GreedyPeel(gd_plus); });
  (*counters)["densest.peeled_edges"] +=
      static_cast<double>(gd.NumEdges() + gd_plus.NumEdges());
  return greedy;
}

dcs::DcsgaOptions SolverOptions() {
  dcs::DcsgaOptions options;  // parallelism 1: the sequential Algorithm 5
  options.assume_nonnegative = true;
  return options;
}

// Times RunNewSea under `parent` and accumulates its work counters.
dcs::DcsgaResult TracedNewSea(const Graph& gd_plus,
                              const dcs::SmartInitBounds& bounds,
                              uint64_t request, uint64_t parent,
                              Tracer* tracer, Counters* counters) {
  dcs::DcsgaResult result;
  tracer->Time("core.newsea", request, parent, [&] {
    result = Unwrap(dcs::RunNewSea(gd_plus, bounds, SolverOptions()),
                    "RunNewSea");
  });
  (*counters)["core.newsea_calls"] += 1;
  (*counters)["core.newsea_descents"] +=
      static_cast<double>(result.initializations);
  (*counters)["core.newsea_pruned"] += static_cast<double>(result.pruned_seeds);
  (*counters)["core.cd_iterations"] += static_cast<double>(result.cd_iterations);
  return result;
}

void CountCache(const dcs::PipelineCache& cache, Counters* counters) {
  const dcs::PipelineCacheStats stats = cache.stats();
  (*counters)["api.cache_hits"] += static_cast<double>(stats.hits);
  (*counters)["api.cache_lookups"] +=
      static_cast<double>(stats.hits + stats.misses + stats.upgrades);
}

// ---------------------------------------------------------------------------
// ad_alpha_sweep / ga_alpha_sweep

constexpr uint64_t kAlphaCycle = 12;
// Planted pairs the GA sweep cycles through: the NewSEA work one pair needs
// varies by ±30% between seeds, so a run spreads its requests over many. A
// prime count coprime to the alpha cycle walks every (pair, alpha) mix.
constexpr size_t kAffinityPairs = 13;
// Entries of the pipeline cache the sweep sessions share — fewer than the
// alphas of one cycle, so every sweep request rebuilds its pipeline.
constexpr size_t kSweepCacheEntries = 8;
// Requests a traced sweep replays: two alpha cycles.
constexpr uint64_t kSweepReplayCap = 2 * kAlphaCycle;

// One input pair of a sweep, with the session that serves it.
struct SweepPair {
  Graph g1;
  Graph g2;
  std::vector<VertexId> planted;  // sorted; empty for the AD sweep
  std::optional<dcs::MinerSession> session;
};

class AlphaSweep final : public Workload {
 public:
  AlphaSweep(const RunConfig& config, bool affinity)
      : affinity_(affinity), pairs_(affinity ? kAffinityPairs : 1) {
    dcs::Rng rng(config.seed);
    for (SweepPair& pair : pairs_) {
      if (affinity_) {
        dcs::SignedPairConfig signed_pair;
        signed_pair.num_editors = config.smoke ? 2000 : 30000;
        signed_pair.backbone_average_degree = 12.0;
        dcs::SignedPairData data = Unwrap(
            dcs::GenerateSignedPairData(signed_pair, &rng), "signed_pair");
        pair.g1 = std::move(data.positive);
        pair.g2 = std::move(data.negative);
        pair.planted = std::move(data.conflicting_group);
      } else {
        dcs::ChungLuParams params;
        params.n = config.smoke ? 3000 : 40000;
        params.average_degree = 20.0;
        params.exponent = 2.3;
        params.weight_geometric_p = 0.5;
        pair.g1 = Unwrap(dcs::ChungLu(params, &rng), "ChungLu");
        pair.g2 = Unwrap(dcs::ChungLu(params, &rng), "ChungLu");
      }
    }
  }

  double SetUp() override {
    std::vector<std::pair<Graph, Graph>> graphs;
    for (SweepPair& pair : pairs_) {
      pair.session.reset();
      graphs.emplace_back(pair.g1, pair.g2);
    }
    const dcs::WallTimer timer;
    dcs::PipelineCacheOptions cache_options;
    cache_options.max_entries = kSweepCacheEntries;
    cache_ = std::make_shared<dcs::PipelineCache>(cache_options);
    dcs::SessionOptions options = SequentialSession();
    options.pipeline_cache = cache_;
    for (size_t k = 0; k < pairs_.size(); ++k) {
      pairs_[k].session.emplace(Unwrap(
          dcs::MinerSession::Create(std::move(graphs[k].first),
                                    std::move(graphs[k].second), options),
          "MinerSession::Create"));
    }
    return timer.Seconds();
  }

  Phase Run(double seconds) override {
    Phase phase;
    const dcs::WallTimer clock;
    for (uint64_t i = 0; clock.Seconds() < seconds; ++i) {
      RequestRecord record;
      record.index = i;
      const Clock::time_point start = Clock::now();
      dcs::Result<dcs::MiningResponse> mined =
          PairOf(i).session->Mine(Request(i));
      record.latency_ms = Ms(Clock::now() - start);
      Finish(std::move(mined), &record);
      ++phase.attempted;
      phase.requests.push_back(std::move(record));
    }
    phase.elapsed_s = clock.Seconds();
    return phase;
  }

  Phase Replay(const Phase& untraced, Tracer* tracer, Counters* counters,
               std::vector<std::string>* violations) override {
    SetUp();
    Phase phase;
    const uint64_t count =
        std::min<uint64_t>(untraced.requests.size(), kSweepReplayCap);
    const dcs::WallTimer clock;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t id = i + 1;
      const dcs::MiningRequest request = Request(i);
      RequestRecord record;
      record.index = i;
      std::optional<dcs::Result<dcs::MiningResponse>> mined;
      record.root_span = tracer->Time("api.mine", id, 0, [&] {
        mined.emplace(PairOf(i).session->Mine(request));
      });
      Finish(std::move(*mined), &record);
      ++phase.attempted;
      if (record.done) {
        Decompose(request, record, tracer, counters, violations);
      }
      phase.requests.push_back(std::move(record));
    }
    phase.elapsed_s = clock.Seconds();
    CountCache(*cache_, counters);
    return phase;
  }

  void Check(const Phase& phase,
             std::vector<std::string>* violations) const override {
    for (const RequestRecord& record : phase.requests) {
      if (!record.done) continue;
      const SweepPair& pair = PairOf(record.index);
      const dcs::MiningRequest request = Request(record.index);
      const DifferenceOracle d(pair.g1, pair.g2, request.alpha);
      CheckResponse(record.response, request.measure, d,
                    affinity_ ? &pair.planted : nullptr,
                    "request " + std::to_string(record.index), violations);
    }
  }

 private:
  // Request i goes to pair i mod P with alpha number i mod 12.
  SweepPair& PairOf(uint64_t i) { return pairs_[i % pairs_.size()]; }
  const SweepPair& PairOf(uint64_t i) const {
    return pairs_[i % pairs_.size()];
  }

  dcs::MiningRequest Request(uint64_t i) const {
    dcs::MiningRequest request;
    request.measure = affinity_ ? dcs::Measure::kGraphAffinity
                                : dcs::Measure::kAverageDegree;
    request.alpha = 0.5 + 0.125 * static_cast<double>(i % kAlphaCycle);
    request.top_k = 1;
    return request;
  }

  static void Finish(dcs::Result<dcs::MiningResponse> mined,
                     RequestRecord* record) {
    if (!mined.ok()) {
      ReportFailure(mined.status());
      return;
    }
    record->done = true;
    record->response = std::move(mined).value();
  }

  // Re-runs the layer calls MinerSession::Mine made for `request` on the
  // same inputs, as children of the request's api.mine span.
  void Decompose(const dcs::MiningRequest& request, const RequestRecord& record,
                 Tracer* tracer, Counters* counters,
                 std::vector<std::string>* violations) const {
    const SweepPair& pair = PairOf(record.index);
    const uint64_t id = record.index + 1;
    const uint64_t root = record.root_span;
    const std::string where = "traced request " + std::to_string(record.index);
    Graph gd;
    tracer->Time("graph.difference", id, root, [&] {
      gd = Unwrap(dcs::GraphKernels::BuildDifferenceGraph(pair.g1, pair.g2,
                                                          request.alpha),
                  "BuildDifferenceGraph");
    });
    (*counters)["requests"] += 1;
    (*counters)["graph.difference_edges"] += static_cast<double>(gd.NumEdges());
    if (!affinity_) {
      const dcs::DcsadResult greedy =
          TracedDcsGreedy(gd, id, root, tracer, counters);
      if (record.response.average_degree.empty() ||
          greedy.density != record.response.average_degree[0].value) {
        Diverged(where, violations);
      }
      return;
    }
    Graph gd_plus;
    tracer->Time("graph.positive_part", id, root,
                 [&] { gd_plus = dcs::GraphKernels::PositivePart(gd); });
    dcs::SmartInitBounds bounds;
    tracer->Time("core.smart_init", id, root,
                 [&] { bounds = dcs::ComputeSmartInitBounds(gd_plus); });
    const dcs::DcsgaResult best =
        TracedNewSea(gd_plus, bounds, id, root, tracer, counters);
    if (record.response.graph_affinity.empty() ||
        best.affinity != record.response.graph_affinity[0].value) {
      Diverged(where, violations);
    }
  }

  const bool affinity_;
  std::vector<SweepPair> pairs_;
  std::shared_ptr<dcs::PipelineCache> cache_;  // shared by the pair sessions
};

// ---------------------------------------------------------------------------
// tenant_stream

constexpr uint32_t kTenants = 3;
constexpr uint64_t kUpdateEvery = 4;
constexpr uint32_t kUpdatesPerBatch = 8;
// Requests per tenant a traced run replays: 24 update batches.
constexpr uint64_t kTenantReplayCap = 24 * kUpdateEvery;

struct Update {
  dcs::UpdateSide side;
  VertexId u;
  VertexId v;
  double delta;
};

uint64_t TenantRequestId(uint32_t tenant, uint64_t index) {
  return (static_cast<uint64_t>(tenant + 1) << 32) | (index + 1);
}

// Pair-keyed entries of `map` in ascending PackVertexPair order.
std::vector<std::pair<uint64_t, double>> SortedByPair(
    const std::unordered_map<uint64_t, double>& map) {
  std::vector<std::pair<uint64_t, double>> sorted(map.begin(), map.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// The benchmark's copy of one tenant pipeline (alpha 1), advanced batch by
// batch exactly as MinerSession's O(Δ) patch path advances its own: the
// per-pair deltas of a batch are summed in arrival order, added to the old
// weight, and spliced in with CsrPatcher; the difference image of every
// touched pair is re-derived; GD+ and the smart-init bounds follow.
struct MirrorPipeline {
  Graph g1;
  Graph g2;
  Graph difference;
  Graph positive_part;
  dcs::SmartInitBounds bounds;

  MirrorPipeline(const Graph& base1, const Graph& base2)
      : g1(base1), g2(base2) {
    difference = Unwrap(dcs::GraphKernels::BuildDifferenceGraph(g1, g2, 1.0),
                        "BuildDifferenceGraph");
    positive_part = dcs::GraphKernels::PositivePart(difference);
    bounds = dcs::ComputeSmartInitBounds(positive_part);
  }

  // Returns the GD+ changes for ApplySmartInitBoundsDelta; `old_gd_plus`
  // receives the pre-batch GD+.
  std::vector<dcs::PositivePairDelta> Patch(const std::vector<Update>& batch,
                                            Graph* old_gd_plus) {
    std::unordered_map<uint64_t, double> pending1;
    std::unordered_map<uint64_t, double> pending2;
    for (const Update& update : batch) {
      auto& pending = update.side == dcs::UpdateSide::kG1 ? pending1 : pending2;
      pending[dcs::PackVertexPair(update.u, update.v)] += update.delta;
    }
    std::vector<std::pair<VertexId, VertexId>> changed;
    auto splice = [&](Graph* graph,
                      const std::unordered_map<uint64_t, double>& pending) {
      std::vector<dcs::EdgePatch> patches;
      for (const auto& [key, delta] : SortedByPair(pending)) {
        const dcs::VertexPair pair = dcs::UnpackVertexPair(key);
        patches.push_back(dcs::EdgePatch{
            pair.u, pair.v, graph->EdgeWeight(pair.u, pair.v) + delta});
        changed.emplace_back(pair.u, pair.v);
      }
      *graph = dcs::CsrPatcher::Apply(*graph, patches);
    };
    splice(&g1, pending1);
    splice(&g2, pending2);
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

    std::vector<dcs::EdgePatch> difference_patches;
    std::vector<dcs::EdgePatch> positive_patches;
    std::vector<dcs::PositivePairDelta> positive_changes;
    for (const auto& [u, v] : changed) {
      const double w1 = g1.EdgeWeight(u, v);
      const double w2 = g2.EdgeWeight(u, v);
      double d = w2;
      if (w1 != 0.0) d = w2 != 0.0 ? w2 - 1.0 * w1 : -1.0 * w1;
      const double weight =
          d != 0.0 && std::fabs(d) > dcs::kDefaultZeroEps ? d : 0.0;
      difference_patches.push_back(dcs::EdgePatch{u, v, weight});
      const double old_d = difference.EdgeWeight(u, v);
      const double old_positive = old_d > 0.0 ? old_d : 0.0;
      const double new_positive = weight > 0.0 ? weight : 0.0;
      positive_patches.push_back(dcs::EdgePatch{u, v, new_positive});
      if (old_positive != new_positive) {
        positive_changes.push_back(
            dcs::PositivePairDelta{u, v, old_positive, new_positive});
      }
    }
    difference = dcs::CsrPatcher::Apply(difference, difference_patches, 0.0);
    *old_gd_plus = std::move(positive_part);
    positive_part = dcs::CsrPatcher::Apply(*old_gd_plus, positive_patches, 0.0);
    return positive_changes;
  }
};

class TenantStream final : public Workload {
 public:
  explicit TenantStream(const RunConfig& config)
      : seed_(config.seed), dir_(config.out_dir + "/tenant_stream.work") {
    const VertexId editors[kTenants] = {4000, 7000, 10000};
    for (uint32_t t = 0; t < kTenants; ++t) {
      dcs::Rng rng(config.seed * 1000003 + t);
      dcs::SignedPairConfig pair;
      pair.num_editors = config.smoke ? editors[t] / 8 + 300 : editors[t];
      pair.backbone_average_degree = 12.0;
      tenants_.push_back(
          Unwrap(dcs::GenerateSignedPairData(pair, &rng), "signed_pair"));
      fingerprints_.push_back(dcs::PipelineGraphFingerprint(
          tenants_.back().positive, tenants_.back().negative));
    }
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
    fs::create_directories(dir_);
    RunEarlierLifetime(config.smoke ? 4 : 10);
  }

  ~TenantStream() override {
    StopService();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  double SetUp() override {
    StopService();
    CopyPristine("live");
    std::vector<std::pair<Graph, Graph>> graphs;
    for (const dcs::SignedPairData& tenant : tenants_) {
      graphs.emplace_back(tenant.positive, tenant.negative);
    }
    // Timed: the restart proper — store open, service construction with
    // journal replay, and tenant registration with warm boot.
    const dcs::WallTimer timer;
    store_ = Unwrap(dcs::ArtifactStore::Open(Path("live.store")),
                    "ArtifactStore::Open");
    service_ = std::make_unique<dcs::MiningService>(
        ServiceOptions(store_, Path("live.journal")));
    for (auto& [g1, g2] : graphs) {
      Unwrap(service_->AddTenant(Unwrap(
                 dcs::MinerSession::Create(std::move(g1), std::move(g2),
                                           SequentialSession()),
                 "MinerSession::Create")),
             "AddTenant");
    }
    return timer.Seconds();
  }

  Phase Run(double seconds) override {
    const dcs::WallTimer clock;
    return Drive([&](uint32_t, uint64_t) { return clock.Seconds() < seconds; },
                 nullptr);
  }

  Phase Replay(const Phase& untraced, Tracer* tracer, Counters* counters,
               std::vector<std::string>* violations) override {
    TraceRestart(tracer);
    SetUp();
    std::vector<uint64_t> count(kTenants, 0);
    for (const RequestRecord& record : untraced.requests) {
      count[record.stream] = std::min(
          kTenantReplayCap, std::max(count[record.stream], record.index + 1));
    }
    Phase phase = Drive([&](uint32_t t, uint64_t i) { return i < count[t]; },
                        tracer);
    CountCache(*cache_, counters);
    Decompose(phase, tracer, counters, violations);
    return phase;
  }

  void Check(const Phase& phase,
             std::vector<std::string>* violations) const override {
    for (uint32_t t = 0; t < kTenants; ++t) {
      const dcs::SignedPairData& tenant = tenants_[t];
      WeightOverlay overlay1;
      WeightOverlay overlay2;
      uint64_t applied = 0;
      for (const RequestRecord* record : StreamRecords(phase, t)) {
        for (; applied <= record->index / kUpdateEvery; ++applied) {
          for (const Update& update : Batch(t, applied)) {
            const Graph& base = update.side == dcs::UpdateSide::kG1
                                    ? tenant.positive
                                    : tenant.negative;
            WeightOverlay& overlay =
                update.side == dcs::UpdateSide::kG1 ? overlay1 : overlay2;
            const uint64_t key = dcs::PackVertexPair(update.u, update.v);
            const auto it = overlay.find(key);
            const double old_weight = it != overlay.end()
                                          ? it->second
                                          : base.EdgeWeight(update.u, update.v);
            overlay[key] = old_weight + update.delta;
          }
        }
        if (!record->done) continue;
        const DifferenceOracle d(tenant.positive, tenant.negative, 1.0,
                                 &overlay1, &overlay2);
        CheckResponse(record->response, dcs::Measure::kBoth, d,
                      &tenant.conflicting_group,
                      "tenant " + std::to_string(t) + " request " +
                          std::to_string(record->index),
                      violations);
      }
    }
  }

 private:
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  static dcs::MiningRequest Request(uint64_t i) {
    dcs::MiningRequest request;
    request.measure = dcs::Measure::kBoth;
    request.top_k = i % 2 == 0 ? 1 : 3;  // top-3 is the all-inits harvest
    return request;
  }

  // The fenced update batch tenant `tenant` applies before its request
  // kUpdateEvery * `batch`: deterministic in (seed, tenant, batch).
  std::vector<Update> Batch(uint32_t tenant, uint64_t batch) const {
    dcs::Rng rng(seed_ * 0x9E3779B97F4A7C15ull +
                 (static_cast<uint64_t>(tenant) << 40) + batch);
    const uint64_t n = tenants_[tenant].positive.NumVertices();
    std::vector<Update> updates;
    for (uint32_t k = 0; k < kUpdatesPerBatch; ++k) {
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      auto v = static_cast<VertexId>(rng.NextBounded(n - 1));
      if (v >= u) ++v;
      const dcs::UpdateSide side =
          rng.Bernoulli(0.5) ? dcs::UpdateSide::kG1 : dcs::UpdateSide::kG2;
      updates.push_back(Update{side, u, v, rng.Uniform(0.25, 1.0)});
    }
    return updates;
  }

  // The records of one tenant, in request order.
  static std::vector<const RequestRecord*> StreamRecords(const Phase& phase,
                                                         uint32_t tenant) {
    std::vector<const RequestRecord*> records;
    for (const RequestRecord& record : phase.requests) {
      if (record.stream == tenant) records.push_back(&record);
    }
    std::sort(records.begin(), records.end(),
              [](const RequestRecord* a, const RequestRecord* b) {
                return a->index < b->index;
              });
    return records;
  }

  dcs::MiningServiceOptions ServiceOptions(
      std::shared_ptr<dcs::ArtifactStore> store, const std::string& journal) {
    dcs::PipelineCacheOptions cache_options;
    cache_options.max_entries = 8;
    cache_ = std::make_shared<dcs::PipelineCache>(cache_options);
    dcs::MiningServiceOptions options;
    options.num_executors = 2;
    options.shared_cache = cache_;
    options.artifact_store = std::move(store);
    options.journal_path = journal;  // group commit (the default durability)
    return options;
  }

  // The untimed earlier lifetime: a service over fresh store and journal
  // files mines `jobs_per_tenant` jobs per tenant and shuts down, leaving
  // the files a restart reopens.
  void RunEarlierLifetime(uint64_t jobs_per_tenant) {
    std::shared_ptr<dcs::ArtifactStore> store = Unwrap(
        dcs::ArtifactStore::Open(Path("pristine.store")), "ArtifactStore::Open");
    dcs::MiningService service(ServiceOptions(store, Path("pristine.journal")));
    for (const dcs::SignedPairData& tenant : tenants_) {
      Unwrap(service.AddTenant(Unwrap(
                 dcs::MinerSession::Create(tenant.positive, tenant.negative,
                                           SequentialSession()),
                 "MinerSession::Create")),
             "AddTenant");
    }
    std::vector<dcs::JobId> jobs;
    for (uint64_t i = 0; i < jobs_per_tenant; ++i) {
      for (uint32_t t = 0; t < kTenants; ++t) {
        jobs.push_back(Unwrap(service.Submit(t, Request(i)), "Submit"));
      }
    }
    for (const dcs::JobId job : jobs) {
      const dcs::JobStatus status = Unwrap(service.Wait(job), "Wait");
      if (status.state != dcs::JobState::kDone) Fatal("job", status.failure);
    }
    CheckOk(store->Flush(), "ArtifactStore::Flush");
  }

  void CopyPristine(const std::string& prefix) const {
    for (const char* kind : {"store", "journal"}) {
      fs::copy_file(Path(std::string("pristine.") + kind),
                    Path(prefix + "." + kind),
                    fs::copy_options::overwrite_existing);
    }
  }

  void StopService() {
    service_.reset();  // joins the executors before the store drains
    store_.reset();
  }

  // One closed-loop client per tenant; `more(t, i)` decides whether tenant
  // t issues its request i.
  Phase Drive(const std::function<bool(uint32_t, uint64_t)>& more,
              Tracer* tracer) {
    std::vector<Phase> per_tenant(kTenants);
    const dcs::WallTimer clock;
    std::vector<std::thread> clients;
    for (uint32_t t = 0; t < kTenants; ++t) {
      clients.emplace_back(
          [this, t, &more, tracer, phase = &per_tenant[t]] {
            for (uint64_t i = 0; more(t, i); ++i) {
              if (i % kUpdateEvery == 0) {
                for (const Update& u : Batch(t, i / kUpdateEvery)) {
                  CheckOk(service_->ApplyUpdate(t, u.side, u.u, u.v, u.delta),
                          "ApplyUpdate");
                }
              }
              phase->requests.push_back(Issue(t, i, tracer));
              ++phase->attempted;
            }
          });
    }
    for (std::thread& client : clients) client.join();
    Phase phase;
    phase.elapsed_s = clock.Seconds();
    for (Phase& part : per_tenant) {
      phase.attempted += part.attempted;
      for (RequestRecord& record : part.requests) {
        phase.requests.push_back(std::move(record));
      }
    }
    return phase;
  }

  // Submit → Wait for request i of tenant t.
  RequestRecord Issue(uint32_t t, uint64_t i, Tracer* tracer) {
    RequestRecord record;
    record.stream = t;
    record.index = i;
    const Clock::time_point start = Clock::now();
    dcs::Result<dcs::JobId> job = service_->Submit(t, Request(i));
    const Clock::time_point submitted = Clock::now();
    if (!job.ok()) {
      ReportFailure(job.status());
      return record;
    }
    dcs::Result<dcs::JobStatus> status = service_->Wait(*job);
    const Clock::time_point end = Clock::now();
    record.latency_ms = Ms(end - start);
    if (!status.ok()) {
      ReportFailure(status.status());
      return record;
    }
    record.done = status->state == dcs::JobState::kDone;
    if (record.done) {
      record.response = std::move(status->response);
    } else {
      ReportFailure(status->failure);
    }
    if (tracer != nullptr) {
      const uint64_t id = TenantRequestId(t, i);
      record.root_span = tracer->Record("api.job", id, 0, start, end);
      tracer->Record("api.submit", id, record.root_span, start, submitted);
      const auto queued = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(status->queue_seconds));
      tracer->Record("api.queue_wait", id, record.root_span, submitted,
                     submitted + queued);
    }
    return record;
  }

  // The restart, layer by layer, on copies of the earlier lifetime's files.
  void TraceRestart(Tracer* tracer) {
    CopyPristine("boot");
    dcs::PipelineCache cache;
    std::shared_ptr<dcs::ArtifactStore> store;
    tracer->Time("store.warm_boot", 0, 0, [&] {
      store = Unwrap(dcs::ArtifactStore::Open(Path("boot.store")),
                     "ArtifactStore::Open");
      for (const uint64_t fingerprint : fingerprints_) {
        store->WarmBootFingerprint(fingerprint, &cache);
      }
    });
    std::shared_ptr<dcs::JobJournal> journal;
    std::vector<dcs::JournalReplayJob> jobs;
    tracer->Time("store.journal_replay", 0, 0, [&] {
      journal = Unwrap(dcs::JobJournal::Open(Path("boot.journal")),
                       "JobJournal::Open");
      jobs = Unwrap(journal->Replay(), "JobJournal::Replay");
    });
  }

  // Re-runs, tenant by tenant and in request order, the layer calls each
  // traced job made inside the service — update patches, smart-init bound
  // maintenance, the solves, the pipeline write-back and the journal
  // appends — on the benchmark's mirror of the tenant's pipeline, as
  // children of the job's api.job span.
  void Decompose(const Phase& phase, Tracer* tracer, Counters* counters,
                 std::vector<std::string>* violations) {
    std::error_code ignored;
    fs::remove(Path("trace.store"), ignored);
    fs::remove(Path("trace.journal"), ignored);
    std::shared_ptr<dcs::ArtifactStore> store = Unwrap(
        dcs::ArtifactStore::Open(Path("trace.store")), "ArtifactStore::Open");
    std::shared_ptr<dcs::JobJournal> journal = Unwrap(
        dcs::JobJournal::Open(Path("trace.journal")), "JobJournal::Open");
    uint64_t admission = 0;
    for (uint32_t t = 0; t < kTenants; ++t) {
      MirrorPipeline mirror(tenants_[t].positive, tenants_[t].negative);
      uint64_t applied = 0;
      for (const RequestRecord* record : StreamRecords(phase, t)) {
        if (!record->done) continue;
        const uint64_t id = TenantRequestId(t, record->index);
        const uint64_t root = record->root_span;
        const std::string where = "traced tenant " + std::to_string(t) +
                                  " request " + std::to_string(record->index);
        for (; applied <= record->index / kUpdateEvery; ++applied) {
          const std::vector<Update> batch = Batch(t, applied);
          Graph old_gd_plus;
          std::vector<dcs::PositivePairDelta> changes;
          tracer->Time("graph.patch", id, root,
                       [&] { changes = mirror.Patch(batch, &old_gd_plus); });
          tracer->Time("core.bounds_delta", id, root, [&] {
            dcs::ApplySmartInitBoundsDelta(old_gd_plus, mirror.positive_part,
                                           changes, &mirror.bounds);
          });
          dcs::PipelineCacheKey key;
          key.graph_fingerprint =
              dcs::PipelineGraphFingerprint(mirror.g1, mirror.g2);
          dcs::PreparedPipeline pipeline;
          pipeline.difference = mirror.difference;
          pipeline.has_ga_artifacts = true;
          pipeline.positive_part = mirror.positive_part;
          pipeline.smart_bounds = mirror.bounds;
          pipeline.validated_nonnegative = true;
          tracer->Time("store.put_pipeline", id, root, [&] {
            CheckOk(store->PutPipeline(key, pipeline),
                    "ArtifactStore::PutPipeline");
          });
        }
        (*counters)["requests"] += 1;
        (*counters)["graph.difference_edges"] +=
            static_cast<double>(mirror.difference.NumEdges());
        const dcs::MiningResponse& response = record->response;
        double ad_value = 0.0;
        double ga_value = 0.0;
        if (Request(record->index).top_k == 1) {
          ad_value = TracedDcsGreedy(mirror.difference, id, root, tracer,
                                     counters)
                         .density;
          ga_value = TracedNewSea(mirror.positive_part, mirror.bounds, id,
                                  root, tracer, counters)
                         .affinity;
        } else {
          dcs::TopkDcsadOptions ad_options;
          ad_options.k = 3;
          std::vector<dcs::RankedDcsad> rounds;
          tracer->Time("core.topk_dcsad", id, root, [&] {
            rounds = Unwrap(dcs::MineTopKDcsad(mirror.difference, ad_options),
                            "MineTopKDcsad");
          });
          dcs::TopkDcsgaOptions ga_options;
          ga_options.k = 3;
          ga_options.solver = SolverOptions();
          std::vector<dcs::CliqueRecord> cliques;
          tracer->Time("core.topk_harvest", id, root, [&] {
            cliques =
                Unwrap(dcs::MineTopKDcsga(mirror.positive_part, ga_options),
                       "MineTopKDcsga");
          });
          ad_value = rounds.empty() ? 0.0 : rounds[0].density;
          ga_value = cliques.empty() ? 0.0 : cliques[0].affinity;
        }
        if (response.average_degree.empty() ||
            response.graph_affinity.empty() ||
            ad_value != response.average_degree[0].value ||
            ga_value != response.graph_affinity[0].value) {
          Diverged(where, violations);
        }
        // The three journal records the service appends for this job.
        dcs::JournalAdmittedRecord admitted;
        admitted.job_id = id;
        admitted.tenant = t;
        admitted.admission_index = ++admission;
        admitted.request = Request(record->index);
        dcs::JournalDoneRecord done;
        done.job_id = id;
        done.response_fingerprint = Digest(response);
        done.has_response = true;
        done.response = response;
        tracer->Time("store.journal_append", id, root, [&] {
          CheckOk(journal->AppendAdmitted(admitted), "AppendAdmitted");
        });
        tracer->Time("store.journal_append", id, root, [&] {
          CheckOk(journal->AppendStarted(id), "AppendStarted");
        });
        tracer->Time("store.journal_append", id, root, [&] {
          CheckOk(journal->AppendDone(done), "AppendDone");
        });
      }
    }
  }

  const uint64_t seed_;
  const std::string dir_;
  std::vector<dcs::SignedPairData> tenants_;
  std::vector<uint64_t> fingerprints_;  // PipelineGraphFingerprint per tenant
  std::shared_ptr<dcs::PipelineCache> cache_;
  std::shared_ptr<dcs::ArtifactStore> store_;
  std::unique_ptr<dcs::MiningService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "ad_alpha_sweep") {
    return std::make_unique<AlphaSweep>(config, /*affinity=*/false);
  }
  if (config.workload == "ga_alpha_sweep") {
    return std::make_unique<AlphaSweep>(config, /*affinity=*/true);
  }
  if (config.workload == "tenant_stream") {
    return std::make_unique<TenantStream>(config);
  }
  return nullptr;
}

}  // namespace perfbench
