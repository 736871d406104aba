// dcs_mine — command-line Density Contrast Subgraph miner.
//
// Usage:
//   dcs_mine --g1 <edge-list> --g2 <edge-list> [options]
//
// The full flag reference is generated from kFlagTable below — run
// `dcs_mine --help`. Input files use the dcs edge-list format (see
// src/graph/io.h): a <num_vertices> header line, then "<u> <v> <weight>"
// per edge.
//
// This tool consumes the api/ facade only (see tools/check_layering.sh):
// the whole difference-graph pipeline (build → discretize → clamp →
// GD+/smart-bounds → solve → rank) lives behind MinerSession, and the
// async, journaled and multi-tenant paths behind MiningService.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "api/artifact_store.h"
#include "api/job_journal.h"
#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "api/pipeline_cache.h"
#include "graph/io.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace {

using namespace dcs;

// The single source of truth for the CLI surface: PrintUsage renders it,
// ParseArgs rejects anything not listed here, and tools/check_docs.sh greps
// it so README/ARCHITECTURE.md cannot reference a flag that does not exist.
struct FlagSpec {
  const char* name;
  const char* value;  // "" for boolean flags
  const char* help;
};

constexpr FlagSpec kFlagTable[] = {
    {"--g1", "<edge-list>", "baseline graph G1 (required)"},
    {"--g2", "<edge-list>", "current graph G2 (required)"},
    {"--measure", "ad|ga|both", "density measure(s) to mine (default: both)"},
    {"--alpha", "<a>", "scale G1 by a in the difference (default: 1.0)"},
    {"--discrete", "", "apply the paper's Discrete weight mapping"},
    {"--flip", "", "mine G1 - G2 instead of G2 - G1 (disappearing)"},
    {"--topk", "<k>", "mine up to k (disjoint) subgraphs (default: 1)"},
    {"--async", "",
     "submit through the MiningService job queue and poll the "
     "queued -> running -> done lifecycle"},
    {"--tenants", "<n>",
     "submit the request to n tenants of one multi-tenant MiningService "
     "(shared executors, worker pool and pipeline cache); asserts all "
     "tenant responses bit-identical and prints per-tenant scheduler "
     "telemetry"},
    {"--store", "<path>",
     "attach a persistent artifact store: warm-boot prepared pipelines "
     "from <path> and write new ones back (created when missing)"},
    {"--deadline", "<seconds>",
     "per-job deadline measured from submission; an expired job fails "
     "with deadline-exceeded (exit code 3) and keeps no partial result"},
    {"--journal", "<path>",
     "attach a crash-consistent job journal: the request runs through a "
     "journaled MiningService (created when missing), jobs left incomplete "
     "by a crashed prior run are recovered first, and a '# journal' "
     "telemetry line is printed"},
    {"--inject", "<spec>",
     "arm deterministic fault injection, e.g. store.append:every=2,times=3 "
     "(site list below; keys: every after times prob seed delay_ms fail "
     "crash; ';' separates specs)"},
    {"--quiet", "", "print only the result lines"},
    {"--help", "", "print this flag reference and exit"},
};

struct Args {
  std::string g1_path;
  std::string g2_path;
  Measure measure = Measure::kBoth;
  double alpha = 1.0;
  bool discrete = false;
  bool flip = false;
  uint32_t topk = 1;
  bool async = false;
  uint32_t tenants = 0;           // 0 = single-tenant modes
  std::string store_path;         // empty = memory-only
  std::string journal_path;       // empty = no job journal
  double deadline_seconds = 0.0;  // 0 = no deadline
  std::string inject_spec;        // empty = fault injection disarmed
  bool quiet = false;
  bool help = false;
};

void PrintUsage(const char* prog, std::FILE* out) {
  std::fprintf(out, "usage: %s --g1 <edge-list> --g2 <edge-list> [options]\n\n",
               prog);
  for (const FlagSpec& flag : kFlagTable) {
    char left[40];
    std::snprintf(left, sizeof(left), "%s %s", flag.name, flag.value);
    std::fprintf(out, "  %-26s %s\n", left, flag.help);
  }
  // The site list is generated from the registry, so --help can never
  // advertise a site FaultSpec::Parse would reject (or miss a new one).
  std::fprintf(out, "\nfault sites for --inject:");
  for (const char* site : fault_sites::kKnownSites) {
    std::fprintf(out, " %s", site);
  }
  std::fprintf(out,
               "\n\ninput files use the dcs edge-list format (src/graph/io.h):"
               "\n  <num_vertices> header line, then \"<u> <v> <weight>\" per "
               "edge\n");
}

const FlagSpec* FindFlag(const std::string& flag) {
  for (const FlagSpec& spec : kFlagTable) {
    if (flag == spec.name) return &spec;
  }
  return nullptr;
}

// Strict numeric parsing: the whole token must be consumed, the value must
// be finite and in range. strtod/strtoul alone accept garbage like "4x"
// (yielding 4) or "foo" (yielding 0) without complaint.
bool ParseDoubleStrict(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseUint32Strict(const char* text, uint32_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-' || *text == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value > 0xFFFFFFFFul) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const FlagSpec* spec = FindFlag(flag);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
    auto next_value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* value = nullptr;
    if (flag == "--g1" && next_value(&value)) {
      args->g1_path = value;
    } else if (flag == "--g2" && next_value(&value)) {
      args->g2_path = value;
    } else if (flag == "--measure" && next_value(&value)) {
      Result<Measure> measure = ParseMeasure(value);
      if (!measure.ok()) {
        std::fprintf(stderr, "invalid --measure '%s'\n", value);
        return false;
      }
      args->measure = *measure;
    } else if (flag == "--alpha" && next_value(&value)) {
      if (!ParseDoubleStrict(value, &args->alpha)) {
        std::fprintf(stderr, "invalid numeric value for --alpha: '%s'\n",
                     value);
        return false;
      }
    } else if (flag == "--topk" && next_value(&value)) {
      if (!ParseUint32Strict(value, &args->topk)) {
        std::fprintf(stderr, "invalid numeric value for --topk: '%s'\n",
                     value);
        return false;
      }
    } else if (flag == "--tenants" && next_value(&value)) {
      if (!ParseUint32Strict(value, &args->tenants) || args->tenants == 0) {
        std::fprintf(stderr, "invalid tenant count for --tenants: '%s'\n",
                     value);
        return false;
      }
    } else if (flag == "--store" && next_value(&value)) {
      args->store_path = value;
    } else if (flag == "--journal" && next_value(&value)) {
      args->journal_path = value;
    } else if (flag == "--deadline" && next_value(&value)) {
      if (!ParseDoubleStrict(value, &args->deadline_seconds) ||
          args->deadline_seconds <= 0.0) {
        std::fprintf(stderr, "invalid value for --deadline: '%s'\n", value);
        return false;
      }
    } else if (flag == "--inject" && next_value(&value)) {
      args->inject_spec = value;
    } else if (flag == "--async") {
      args->async = true;
    } else if (flag == "--discrete") {
      args->discrete = true;
    } else if (flag == "--flip") {
      args->flip = true;
    } else if (flag == "--quiet") {
      args->quiet = true;
    } else if (flag == "--help") {
      args->help = true;
      return true;
    } else {
      std::fprintf(stderr, "flag '%s' is missing its %s value\n",
                   flag.c_str(), spec->value);
      return false;
    }
  }
  if (args->g1_path.empty() || args->g2_path.empty()) {
    std::fprintf(stderr, "--g1 and --g2 are required\n");
    return false;
  }
  if (args->topk == 0) {
    std::fprintf(stderr, "--topk must be >= 1\n");
    return false;
  }
  if (!(args->alpha > 0.0)) {
    std::fprintf(stderr, "--alpha must be positive\n");
    return false;
  }
  if (args->tenants > 0 && args->async) {
    std::fprintf(stderr, "--tenants subsumes --async\n");
    return false;
  }
  return true;
}

void PrintSubsets(const char* tag, const char* value_name,
                  const std::vector<RankedSubgraph>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    const RankedSubgraph& subgraph = results[i];
    std::printf("%s #%zu: %s=%.6f size=%zu vertices={", tag, i + 1,
                value_name, subgraph.value, subgraph.vertices.size());
    for (size_t j = 0; j < subgraph.vertices.size(); ++j) {
      std::printf("%s%u", j ? "," : "", subgraph.vertices[j]);
    }
    std::printf("}\n");
  }
}

bool SameRanking(const std::vector<RankedSubgraph>& a,
                 const std::vector<RankedSubgraph>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertices != b[i].vertices || a[i].value != b[i].value ||
        a[i].weights != b[i].weights) {
      return false;
    }
  }
  return true;
}

// Lifetime counters of the session or service that ran the request, read
// from their owners before those go out of scope.
struct RunCounters {
  bool have_health = false;
  HealthState health = HealthState::kHealthy;
  uint64_t health_transitions = 0;
  uint64_t store_write_errors = 0;
  uint64_t store_retries = 0;
  bool have_journal = false;  // a journal was configured and opened
  JobJournalStats journal;
  uint64_t recovered_jobs = 0;
};

RunCounters ReadCounters(const MiningService& service) {
  RunCounters counters;
  counters.have_health = true;
  counters.health = service.health();
  counters.health_transitions = service.num_health_transitions();
  counters.store_write_errors = service.num_store_write_errors();
  counters.store_retries = service.num_store_retries();
  Result<JobJournalStats> journal = service.journal_stats();
  if (journal.ok()) {
    counters.have_journal = true;
    counters.journal = *journal;
    counters.recovered_jobs = service.num_recovered_jobs();
  }
  return counters;
}

// The --tenants path: n tenants over copies of the same graphs, scheduled
// by one multi-tenant MiningService sharing two executors, a worker pool
// and a pipeline cache. The request is submitted to every tenant at
// staggered priorities; every response must be bit-identical (priority
// reorders dispatch between tenants, never results). Returns tenant 0's
// response, or an error status. The service's counters are read into
// `counters`, mirroring the --async path.
Result<MiningResponse> MineMultiTenant(
    const Args& args, const Graph& g1, const Graph& g2,
    const MiningRequest& request, const std::shared_ptr<ArtifactStore>& store,
    RunCounters* counters) {
  const uint32_t n = args.tenants;
  MiningServiceOptions options;
  options.num_executors = 2;
  options.journal_path = args.journal_path;
  options.shared_cache = std::make_shared<PipelineCache>();
  options.worker_pool =
      std::make_shared<ThreadPool>(ThreadPool::DefaultConcurrency() - 1);
  options.artifact_store = store;
  MiningService service(options);
  for (uint32_t i = 0; i < n; ++i) {
    Result<MinerSession> session = MinerSession::Create(g1, g2);
    if (!session.ok()) return session.status();
    // Tenant 0 gets a double weight so the telemetry below shows the
    // fair-share clocks diverging by design, not by accident.
    Result<TenantId> tenant = service.AddTenant(
        std::move(*session), TenantOptions{.weight = i == 0 ? 2u : 1u});
    if (!tenant.ok()) return tenant.status();
  }

  std::vector<JobId> jobs(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    MiningRequest per_tenant = request;
    per_tenant.priority = static_cast<int32_t>(i % 3) - 1;
    Result<JobId> job = service.Submit(static_cast<TenantId>(i), per_tenant);
    if (!job.ok()) return job.status();
    jobs[i] = *job;
  }

  std::vector<MiningResponse> responses(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<JobStatus> status = service.Wait(jobs[i]);
    if (!status.ok()) return status.status();
    if (status->state != JobState::kDone) {
      if (status->failure.IsDeadlineExceeded()) return status->failure;
      return Status::Internal("tenant " + std::to_string(i) + " job ended " +
                              JobStateToString(status->state) + ": " +
                              status->failure.ToString());
    }
    responses[i] = std::move(status->response);
  }
  for (uint32_t i = 1; i < n; ++i) {
    if (!SameRanking(responses[0].average_degree,
                     responses[i].average_degree) ||
        !SameRanking(responses[0].graph_affinity,
                     responses[i].graph_affinity)) {
      return Status::Internal("tenant " + std::to_string(i) +
                              " diverged from tenant 0 — multi-tenant "
                              "determinism violated");
    }
  }

  if (!args.quiet) {
    std::printf("# multi-tenant: %u tenants, 2 executors, shared pool + "
                "cache; all responses bit-identical\n", n);
    for (uint32_t i = 0; i < n; ++i) {
      Result<TenantStats> stats = service.tenant_stats(i);
      if (!stats.ok()) continue;
      std::printf(
          "#   tenant %u: weight %u, %llu dispatched, vclock %.3f, "
          "queued %.1f ms max\n",
          i, i == 0 ? 2u : 1u,
          static_cast<unsigned long long>(stats->dispatched),
          stats->virtual_time, stats->max_queue_seconds * 1e3);
    }
  }
  *counters = ReadCounters(service);
  return std::move(responses[0]);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage(argv[0], stderr);
    return 2;
  }
  if (args.help) {
    PrintUsage(argv[0], stdout);
    return 0;
  }
  if (!args.inject_spec.empty()) {
    const Status armed = FaultInjection::Global().ArmText(args.inject_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "invalid --inject spec: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  }

  Result<Graph> g1 = ReadEdgeListFile(args.g1_path);
  if (!g1.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", args.g1_path.c_str(),
                 g1.status().ToString().c_str());
    return 1;
  }
  Result<Graph> g2 = ReadEdgeListFile(args.g2_path);
  if (!g2.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", args.g2_path.c_str(),
                 g2.status().ToString().c_str());
    return 1;
  }

  MiningRequest request;
  request.measure = args.measure;
  request.alpha = args.alpha;
  request.flip = args.flip;
  request.top_k = args.topk;
  // Enforced by the MiningService watchdog in --async mode; the synchronous
  // path wraps its own CancelToken below (Mine ignores the field).
  request.deadline_seconds = args.deadline_seconds;
  if (args.discrete) request.discretize = DiscretizeSpec{};

  // Open (or create) the persistent store before any session exists, so
  // every mode warm-boots from it and writes built pipelines back.
  std::shared_ptr<ArtifactStore> store;
  if (!args.store_path.empty()) {
    Result<std::shared_ptr<ArtifactStore>> opened =
        ArtifactStore::Open(args.store_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "failed to open store %s: %s\n",
                   args.store_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
  }

  // Counters gathered by whichever mode ran, printed with the other `#`
  // lines below (the sources — session or service — go out of scope before
  // then).
  RunCounters counters;
  int exit_code = 0;

  Result<MiningResponse> response = Status::Internal("not mined");
  if (args.tenants > 0) {
    response = MineMultiTenant(args, *g1, *g2, request, store, &counters);
    if (!response.ok()) {
      if (response.status().IsDeadlineExceeded()) {
        std::fprintf(stderr, "mining failed: %s\n",
                     response.status().ToString().c_str());
        return 3;
      }
      std::fprintf(stderr, "multi-tenant mining failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
  } else {
    SessionOptions session_options;
    session_options.artifact_store = store;
    Result<MinerSession> session = MinerSession::Create(
        std::move(*g1), std::move(*g2), session_options);
    if (!session.ok()) {
      std::fprintf(stderr, "session setup failed: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }

    if (!args.quiet) {
      // The snapshot of the exact pipeline being mined (incl. --discrete).
      Result<Graph> gd = session->DifferenceSnapshot(request);
      if (gd.ok()) {
        std::printf("# difference graph: %s\n", gd->DebugString().c_str());
      }
    }

    if (args.async || !args.journal_path.empty()) {
      // The async path: the same request goes through the MiningService job
      // queue — submit, poll the lifecycle, wait for the terminal snapshot.
      // --journal routes the otherwise-synchronous mine through the same
      // service so admission is journaled and a crashed prior run's
      // incomplete jobs are recovered (and re-mined) before this one.
      MiningServiceOptions service_options;
      service_options.journal_path = args.journal_path;
      MiningService service(std::move(*session), service_options);
      if (!args.quiet && service.num_recovered_jobs() > 0) {
        std::printf("# journal recovered %llu jobs from %s\n",
                    static_cast<unsigned long long>(
                        service.num_recovered_jobs()),
                    args.journal_path.c_str());
      }
      Result<JobId> job = service.Submit(request);
      if (!job.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     job.status().ToString().c_str());
        return 1;
      }
      if (args.async && !args.quiet) {
        std::printf("# submitted job %llu\n",
                    static_cast<unsigned long long>(*job));
        JobState last = JobState::kQueued;
        std::printf("# job state: %s\n", JobStateToString(last));
        while (true) {
          Result<JobStatus> polled = service.Poll(*job);
          if (!polled.ok() || polled->terminal()) break;
          if (polled->state != last) {
            last = polled->state;
            std::printf("# job state: %s\n", JobStateToString(last));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      Result<JobStatus> final_status = service.Wait(*job);
      if (!final_status.ok()) {
        std::fprintf(stderr, "wait failed: %s\n",
                     final_status.status().ToString().c_str());
        return 1;
      }
      if (args.async && !args.quiet) {
        std::printf("# job state: %s (queued %.1f ms, ran %.1f ms)\n",
                    JobStateToString(final_status->state),
                    final_status->queue_seconds * 1e3,
                    final_status->run_seconds * 1e3);
      }
      if (final_status->state != JobState::kDone) {
        std::fprintf(stderr, "job %s: %s\n",
                     JobStateToString(final_status->state),
                     final_status->failure.ToString().c_str());
        // Exit 3 distinguishes a deadline expiry from other failures (1),
        // so timeout-retry wrappers can tell them apart.
        return final_status->failure.IsDeadlineExceeded() ? 3 : 1;
      }
      counters = ReadCounters(service);
      response = std::move(final_status->response);
    } else if (args.deadline_seconds > 0.0) {
      // Synchronous deadline: Mine ignores request.deadline_seconds (no
      // service watchdog exists), so wrap the solve in a local one firing a
      // CancelToken — the same mechanism the service uses.
      CancelToken cancel;
      std::mutex m;
      std::condition_variable cv;
      bool finished = false;
      bool deadline_fired = false;
      std::thread watchdog([&] {
        std::unique_lock<std::mutex> lk(m);
        if (!cv.wait_for(lk,
                         std::chrono::duration<double>(args.deadline_seconds),
                         [&] { return finished; })) {
          deadline_fired = true;
          cancel.Cancel();
        }
      });
      response = session->Mine(request, &cancel);
      {
        std::lock_guard<std::mutex> lk(m);
        finished = true;
      }
      cv.notify_one();
      watchdog.join();
      if (!response.ok() && response.status().IsCancelled() &&
          deadline_fired) {
        std::fprintf(stderr, "mining failed: deadline of %gs exceeded\n",
                     args.deadline_seconds);
        return 3;
      }
    } else {
      response = session->Mine(request);
    }
    if (!response.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (!args.async) {
      // Settle async write-backs *before* sampling the ladder, so injected
      // or real store failures from this very mine are already visible.
      if (store != nullptr) {
        const Status settled = store->Flush();
        if (!settled.ok()) {
          std::fprintf(stderr, "store write-back failed: %s\n",
                       settled.ToString().c_str());
          exit_code = 1;  // persistence was requested and not delivered
        }
        session->RefreshHealth();
      }
      counters.have_health = true;
      counters.health = session->health();
      counters.health_transitions = session->num_health_transitions();
      counters.store_write_errors = session->num_store_write_errors();
      counters.store_retries = session->num_store_retries();
    }
  }

  if (!args.quiet) {
    if (store != nullptr) {
      // Settle async write-backs so the stats are final; a failed write-back
      // surfaces here (and in the health line) instead of vanishing.
      const Status settled = store->Flush();
      const ArtifactStoreStats stats = store->stats();
      std::printf(
          "# store: %llu hits / %llu misses, %llu corrupt pages, "
          "%llu pipeline records, %llu bytes (%s)\n",
          static_cast<unsigned long long>(stats.loads - stats.load_misses),
          static_cast<unsigned long long>(stats.load_misses),
          static_cast<unsigned long long>(stats.corrupt_pages),
          static_cast<unsigned long long>(stats.pipeline_records),
          static_cast<unsigned long long>(stats.file_bytes),
          args.store_path.c_str());
      if (!settled.ok()) {
        std::printf("# store write-back error: %s\n",
                    settled.ToString().c_str());
      }
    }
    if (counters.have_journal) {
      std::printf(
          "# journal: %llu appends, %llu recovered jobs, %llu truncations "
          "(%s)\n",
          static_cast<unsigned long long>(counters.journal.appended_records),
          static_cast<unsigned long long>(counters.recovered_jobs),
          static_cast<unsigned long long>(counters.journal.truncations),
          args.journal_path.c_str());
    }
    if (counters.have_health) {
      std::printf(
          "# health: %s (%llu transitions, %llu store write errors, "
          "%llu io retries)\n",
          HealthStateToString(counters.health),
          static_cast<unsigned long long>(counters.health_transitions),
          static_cast<unsigned long long>(counters.store_write_errors),
          static_cast<unsigned long long>(counters.store_retries));
    }
    if (!args.inject_spec.empty()) {
      std::printf("# inject: %llu faults fired\n",
                  static_cast<unsigned long long>(
                      FaultInjection::Global().total_fires()));
    }
  }
  if (args.measure != Measure::kGraphAffinity) {
    PrintSubsets("DCSAD", "density_diff", response->average_degree);
    if (response->average_degree.empty() && !args.quiet) {
      std::printf("# DCSAD: no subgraph with positive density difference\n");
    }
  }
  if (args.measure != Measure::kAverageDegree) {
    PrintSubsets("DCSGA", "affinity_diff", response->graph_affinity);
    if (response->graph_affinity.empty() && !args.quiet) {
      std::printf("# DCSGA: no subgraph with positive affinity difference\n");
    }
  }
  return exit_code;
}
