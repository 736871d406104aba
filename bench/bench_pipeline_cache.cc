// Cross-session pipeline cache: N sessions over one dataset, private vs
// shared preparation.
//
// Models the ROADMAP's heavy multi-user scenario: S concurrent
// MinerSessions serve the same (G1, G2) pair, each issuing the same small
// request mix. With private caches every session pays the pipeline prefix
// (difference graph, GD+, smart-init bounds); attached to one shared
// PipelineCache the prefix is paid once and the other S−1 sessions hit.
// Every response is checked bit-identical across both configurations — the
// cross-session determinism guarantee — and the cache hit/miss/bytes
// telemetry is reported per row.
//
// `--json out.json` emits the BENCH_pipeline_cache.json record tracked in
// the repo; `--smoke` shrinks the dataset and session sweep so the ctest
// `bench_smoke_cache` wiring finishes in well under a second.

#include <cstdio>
#include <memory>
#include <thread>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/pipeline_cache.h"
#include "bench_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace dcs;
using namespace dcs::bench;

// The per-session request mix: both pipeline keys get exercised so a shared
// cache serves several entries, not one.
std::vector<MiningRequest> RequestMix() {
  std::vector<MiningRequest> requests(2);
  requests[0].measure = Measure::kGraphAffinity;
  requests[0].alpha = 1.0;
  requests[1].measure = Measure::kGraphAffinity;
  requests[1].alpha = 2.0;
  return requests;
}

struct RunResult {
  double wall_ms = 0.0;
  uint64_t rebuilds = 0;  // summed across sessions
  PipelineCacheStats stats;
  MiningResponse first_response;  // session 0, request 0 (checksum source)
  std::string serialized;         // all responses, for the identity check
};

// Runs `sessions` concurrent sessions over (g1, g2), each mining the
// request mix. `shared` attaches all of them to one PipelineCache.
RunResult RunSessions(const Graph& g1, const Graph& g2, uint32_t sessions,
                      bool shared) {
  const std::vector<MiningRequest> requests = RequestMix();
  auto cache = shared ? std::make_shared<PipelineCache>() : nullptr;
  std::vector<std::vector<MiningResponse>> responses(sessions);
  std::vector<uint64_t> rebuilds(sessions, 0);
  std::vector<PipelineCacheStats> private_stats(sessions);

  WallTimer timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (uint32_t i = 0; i < sessions; ++i) {
      threads.emplace_back([&, i] {
        SessionOptions options;
        options.pipeline_cache = cache;  // null = private
        Result<MinerSession> session = MinerSession::Create(g1, g2, options);
        DCS_CHECK(session.ok()) << session.status().ToString();
        for (const MiningRequest& request : requests) {
          Result<MiningResponse> response = session->Mine(request);
          DCS_CHECK(response.ok()) << response.status().ToString();
          responses[i].push_back(std::move(*response));
        }
        rebuilds[i] = session->num_rebuilds();
        private_stats[i] = session->pipeline_cache()->stats();
      });
    }
    for (std::thread& t : threads) t.join();
  }

  RunResult out;
  out.wall_ms = timer.Seconds() * 1e3;
  for (uint32_t i = 0; i < sessions; ++i) {
    out.rebuilds += rebuilds[i];
    for (const MiningResponse& response : responses[i]) {
      out.serialized += SerializeAffinityRanking(response);
      out.serialized += "#";
    }
  }
  if (shared) {
    out.stats = cache->stats();
  } else {
    for (const PipelineCacheStats& stats : private_stats) {
      out.stats.hits += stats.hits;
      out.stats.misses += stats.misses;
      out.stats.upgrades += stats.upgrades;
      out.stats.bytes += stats.bytes;
      out.stats.entries += stats.entries;
    }
  }
  out.first_response = std::move(responses[0][0]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const uint64_t seed = 20180416;
  std::printf("seed = %llu, hardware_concurrency = %u%s\n\n",
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(),
              args.smoke ? " (smoke mode)" : "");

  struct PairDataset {
    std::string label;
    Graph g1;
    Graph g2;
  };
  std::vector<PairDataset> datasets;
  if (args.smoke) {
    const CoauthorData tiny = MakeDblpAnalog(seed, /*num_authors=*/600);
    datasets.push_back({"DBLP-tiny", tiny.g1, tiny.g2});
  } else {
    const CoauthorData dblp = MakeDblpAnalog(seed);
    datasets.push_back({"DBLP", dblp.g1, dblp.g2});
    const CoauthorData dblp_c = MakeDblpCAnalog(seed + 4);
    datasets.push_back({"DBLP-C", dblp_c.g1, dblp_c.g2});
  }
  const std::vector<uint32_t> session_counts =
      args.smoke ? std::vector<uint32_t>{2}
                 : std::vector<uint32_t>{1, 2, 4, 8};
  const size_t requests_per_session = RequestMix().size();

  JsonReporter reporter("pipeline_cache", seed);
  TablePrinter table(
      "Cross-session pipeline cache: private vs shared preparation",
      {"Data", "Sessions", "Config", "Wall ms", "Rebuilds", "Hits", "Misses",
       "KiB", "Bit-identical?"});
  for (const PairDataset& dataset : datasets) {
    for (const uint32_t sessions : session_counts) {
      RunResult private_run =
          RunSessions(dataset.g1, dataset.g2, sessions, /*shared=*/false);
      RunResult shared_run =
          RunSessions(dataset.g1, dataset.g2, sessions, /*shared=*/true);

      // The cross-session determinism guarantee, enforced on every run:
      // responses over the shared cache match the private ones bit for bit.
      const bool identical = private_run.serialized == shared_run.serialized;
      DCS_CHECK(identical) << dataset.label << " diverged at " << sessions
                           << " sessions";
      // Shared preparation really is once per pipeline key.
      DCS_CHECK(shared_run.rebuilds == requests_per_session)
          << dataset.label << ": expected " << requests_per_session
          << " shared rebuilds, got " << shared_run.rebuilds;

      for (const bool shared : {false, true}) {
        const RunResult& run = shared ? shared_run : private_run;
        const MiningTelemetry& telemetry = run.first_response.telemetry;
        BenchRecord record;
        record.dataset =
            dataset.label + (shared ? " / shared" : " / private");
        record.threads = sessions;
        record.wall_ms = run.wall_ms;
        record.initializations = telemetry.initializations;
        record.pruned_seeds = telemetry.pruned_seeds;
        record.affinity = run.first_response.graph_affinity.empty()
                              ? 0.0
                              : run.first_response.graph_affinity[0].value;
        record.extra = {
            {"sessions", static_cast<double>(sessions)},
            {"requests",
             static_cast<double>(sessions * requests_per_session)},
            {"rebuilds", static_cast<double>(run.rebuilds)},
            {"cache_hits", static_cast<double>(run.stats.hits)},
            {"cache_misses", static_cast<double>(run.stats.misses)},
            {"cache_bytes", static_cast<double>(run.stats.bytes)},
        };
        reporter.Add(record);
        table.AddRow({dataset.label, TablePrinter::Fmt(uint64_t{sessions}),
                      shared ? "shared" : "private",
                      TablePrinter::Fmt(run.wall_ms, 2),
                      TablePrinter::Fmt(run.rebuilds),
                      TablePrinter::Fmt(run.stats.hits),
                      TablePrinter::Fmt(run.stats.misses),
                      TablePrinter::Fmt(
                          static_cast<double>(run.stats.bytes) / 1024.0, 1),
                      identical ? "Yes" : "No"});
      }
      std::fflush(stdout);
    }
  }
  table.Print();

  if (!args.json_path.empty()) {
    DCS_CHECK(reporter.WriteTo(args.json_path))
        << "cannot write " << args.json_path;
    std::printf("\nwrote %s\n", args.json_path.c_str());
  }
  return 0;
}
