// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--smoke]
//
// Generates the workload's inputs from the seed (untimed), sets the system
// up several times (the median is setup_s), runs the untraced closed loop
// for --seconds and checks every response. With --trace 1 it then replays
// the same request sequence with spans around the public layer calls and
// reports per-layer metrics instead of end-to-end ones. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Box facts (hardware concurrency, measured effective parallelism, kernel
// ISA, CPU model) are printed beside it and stored with each result file.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "gate.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BoxFacts {
  unsigned hardware_concurrency = 0;
  double effective_parallelism = 0.0;
  std::string kernel_isa;
  std::string cpu_model;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// What a trivially parallel loop gains from all hardware threads: the
// concurrency times the one-task time over the all-tasks time, each the
// best of three rounds on a util/ ThreadPool.
double EffectiveParallelism(bool smoke) {
  const size_t p = dcs::ThreadPool::DefaultConcurrency();
  if (p <= 1) return 1.0;
  dcs::ThreadPool pool(p - 1);
  std::atomic<uint64_t> sink{0};
  const uint64_t iterations = smoke ? 2'000'000 : 20'000'000;
  auto spin = [&](size_t task) {
    uint64_t x = task + 1;
    for (uint64_t k = 0; k < iterations; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink += x;
  };
  auto best_of_three = [&](size_t tasks) {
    double best = 1e300;
    for (int round = 0; round < 3; ++round) {
      const dcs::WallTimer timer;
      pool.RunTasks(tasks, spin);
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  const double one = best_of_three(1);
  const double all = best_of_three(p);
  return static_cast<double>(p) * Ratio(one, all);
}

BoxFacts MeasureBox(bool smoke) {
  BoxFacts box;
  box.hardware_concurrency = std::thread::hardware_concurrency();
  box.effective_parallelism = EffectiveParallelism(smoke);
  box.kernel_isa = dcs::KernelIsaName(dcs::ActiveKernelIsa());
  box.cpu_model = CpuModel();
  return box;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string BoxJson(const BoxFacts& box) {
  return "{\"hardware_concurrency\": " +
         std::to_string(box.hardware_concurrency) +
         ", \"effective_parallelism\": " +
         JsonNumber(box.effective_parallelism) +
         ", \"kernel_isa\": " + JsonString(box.kernel_isa) +
         ", \"cpu_model\": " + JsonString(box.cpu_model) + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

DigestMap Digests(const Phase& phase) {
  DigestMap digests;
  for (const RequestRecord& record : phase.requests) {
    if (record.done) {
      digests[{record.stream, record.index}] = Digest(record.response);
    }
  }
  return digests;
}

std::vector<double> DoneLatencies(const Phase& phase) {
  std::vector<double> latencies;
  for (const RequestRecord& record : phase.requests) {
    if (record.done) latencies.push_back(record.latency_ms);
  }
  return latencies;
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setups,
                                    const Phase& phase, double cpu_s,
                                    double peak_rss_mb) {
  const std::vector<double> latencies = DoneLatencies(phase);
  const double done = static_cast<double>(latencies.size());
  return {
      {"setup_s", Median(setups), "s"},
      {"throughput_rps", Ratio(done, phase.elapsed_s), "1/s"},
      {"latency_ms.p50", Percentile(latencies, 0.5), "ms"},
      {"latency_ms.p90", Percentile(latencies, 0.9), "ms"},
      {"cpu_ms_per_request", Ratio(cpu_s * 1e3, done), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"completed_ratio",
       Ratio(done, static_cast<double>(phase.attempted)), "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<Span>& spans,
                                    const Counters& counters,
                                    const Phase& untraced, const Phase& traced,
                                    const BoxFacts& box) {
  const TraceSummary summary = Summarize(spans);
  // Per span name: the summed duration of the name's spans within each
  // request (request 0 holds the restart spans).
  std::map<std::string, std::map<uint64_t, double>> per_request;
  for (const Span& span : spans) {
    per_request[span.name][span.request] += span.duration_ms();
  }
  auto ms = [&](const std::string& name) {
    std::vector<double> sums;
    for (const auto& [request, total] : per_request[name]) sums.push_back(total);
    return Median(sums);
  };
  auto per_call_us = [&](const std::string& name) {
    const auto it = summary.durations_ms.find(name);
    return it == summary.durations_ms.end() ? 0.0 : 1e3 * Median(it->second);
  };
  auto total_ms = [&](const std::string& name) {
    const auto it = summary.durations_ms.find(name);
    return it == summary.durations_ms.end()
               ? 0.0
               : std::accumulate(it->second.begin(), it->second.end(), 0.0);
  };
  auto count = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto self_ms = [&](const std::string& layer) {
    const auto it = summary.self_ms_by_layer.find(layer);
    return it == summary.self_ms_by_layer.end()
               ? 0.0
               : Ratio(it->second, static_cast<double>(traced.requests.size()));
  };

  // Tracing overhead: the traced requests' root spans against the same
  // requests untraced.
  const DigestMap replayed = Digests(traced);
  double untraced_ms = 0.0;
  for (const RequestRecord& record : untraced.requests) {
    if (record.done && replayed.count({record.stream, record.index}) != 0) {
      untraced_ms += record.latency_ms;
    }
  }
  const double traced_ms = std::accumulate(summary.request_ms.begin(),
                                           summary.request_ms.end(), 0.0);

  const double descents = count("core.newsea_descents");
  const double pruned = count("core.newsea_pruned");
  const double newsea_calls = count("core.newsea_calls");
  return {
      {"graph.difference_ms", ms("graph.difference"), "ms"},
      {"graph.positive_part_ms", ms("graph.positive_part"), "ms"},
      {"graph.patch_ms", ms("graph.patch"), "ms"},
      {"graph.difference_edges",
       Ratio(count("graph.difference_edges"), count("requests")), "count"},
      {"densest.peel_ms", ms("densest.peel"), "ms"},
      {"densest.peel_ns_per_edge",
       Ratio(total_ms("densest.peel") * 1e6, count("densest.peeled_edges")),
       "ns"},
      {"core.dcsgreedy_ms", ms("core.dcsgreedy"), "ms"},
      {"core.smart_init_ms", ms("core.smart_init"), "ms"},
      {"core.newsea_ms", ms("core.newsea"), "ms"},
      {"core.newsea_descents", Ratio(descents, newsea_calls), "count"},
      {"core.newsea_pruned_ratio", Ratio(pruned, pruned + descents), "ratio"},
      {"core.newsea_us_per_descent",
       Ratio(total_ms("core.newsea") * 1e3, descents), "us"},
      {"core.cd_iterations", Ratio(count("core.cd_iterations"), newsea_calls),
       "count"},
      {"core.topk_harvest_ms", ms("core.topk_harvest"), "ms"},
      {"core.topk_dcsad_ms", ms("core.topk_dcsad"), "ms"},
      {"core.bounds_delta_ms", ms("core.bounds_delta"), "ms"},
      {"api.mine_ms", ms("api.mine"), "ms"},
      {"api.job_ms", ms("api.job"), "ms"},
      {"api.cache_hit_ratio",
       Ratio(count("api.cache_hits"), count("api.cache_lookups")), "ratio"},
      {"api.submit_us", per_call_us("api.submit"), "us"},
      {"api.queue_wait_ms", ms("api.queue_wait"), "ms"},
      {"store.journal_append_us", per_call_us("store.journal_append"), "us"},
      {"store.put_pipeline_ms", ms("store.put_pipeline"), "ms"},
      {"store.warm_boot_ms", ms("store.warm_boot"), "ms"},
      {"store.journal_replay_ms", ms("store.journal_replay"), "ms"},
      {"util.effective_parallelism", box.effective_parallelism, "x"},
      {"self.api_ms", self_ms("api"), "ms"},
      {"self.graph_ms", self_ms("graph"), "ms"},
      {"self.densest_ms", self_ms("densest"), "ms"},
      {"self.core_ms", self_ms("core"), "ms"},
      {"self.store_ms", self_ms("store"), "ms"},
      {"trace.coverage", Median(summary.coverage), "ratio"},
      {"trace.slowdown", Ratio(traced_ms, untraced_ms), "x"},
  };
}

struct Args {
  RunConfig config;
  bool ok = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return args;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return args;
      have_seed = true;
    } else if (flag == "--seconds") {
      args.config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.config.seconds > 0.0)) {
        return args;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return args;
      args.config.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.config.out_dir = value;
    } else {
      return args;
    }
  }
  args.ok = have_workload && have_seed && !args.config.out_dir.empty();
  return args;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir> [--smoke]\n");
    return 2;
  }
  RunConfig& config = args.config;
  std::filesystem::create_directories(config.out_dir);
  const std::string run_name = config.workload + "-seed" +
                               std::to_string(config.seed) +
                               (config.smoke ? "-smoke" : "");

  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  const BoxFacts box = MeasureBox(config.smoke);

  const int num_setups = config.smoke ? 3 : 21;
  std::vector<double> setups;
  for (int i = 0; i < num_setups; ++i) setups.push_back(workload->SetUp());

  const double cpu_before = ProcessCpuSeconds();
  const Phase untraced = workload->Run(config.seconds);
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const double peak_rss_mb = PeakRssMb();

  std::vector<std::string> violations;
  workload->Check(untraced, &violations);
  const DigestMap digests = Digests(untraced);

  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = EndToEndMetrics(setups, untraced, cpu_s, peak_rss_mb);
  } else {
    Tracer tracer;
    Counters counters;
    const Phase traced =
        workload->Replay(untraced, &tracer, &counters, &violations);
    workload->Check(traced, &violations);
    const DigestMap traced_digests = Digests(traced);
    if (traced_digests.size() != traced.requests.size()) {
      violations.push_back("traced run: a replayed request failed");
    }
    CompareDigests(digests, traced_digests, "traced run", &violations);
    const std::vector<Span> spans = tracer.spans();
    if (!tracer.WriteJsonLines(config.out_dir + "/" + run_name +
                               ".spans.jsonl")) {
      violations.push_back("cannot write the span file");
    }
    metrics = PerLayerMetrics(spans, counters, untraced, traced, box);
  }
  workload.reset();  // stops every thread the workload started
  CheckAndStoreDigests(config.out_dir + "/" + run_name + ".digests", digests,
                       &violations);
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      violations.push_back("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }

  uint64_t done = 0;
  for (const RequestRecord& record : untraced.requests) done += record.done;
  const uint64_t failed = untraced.attempted - done;
  const bool correct = violations.empty();
  for (size_t i = 0; i < violations.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: violation: %s\n", violations[i].c_str());
  }
  if (violations.size() > 20) {
    std::fprintf(stderr, "perfbench: ... %zu violations in total\n",
                 violations.size());
  }

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(untraced.attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::string setups_json = "[";
  for (size_t i = 0; i < setups.size(); ++i) {
    setups_json += (i > 0 ? ", " : "") + JsonNumber(setups[i]);
  }
  std::ofstream(config.out_dir + "/" + run_name + "-trace" +
                (config.trace ? "1" : "0") + ".json")
      << "{\"box\": " << BoxJson(box) << ", \"setups_s\": " << setups_json
      << "], \"violations\": " << violations.size()
      << ", \"result\": " << result << "}\n";

  std::printf("%s seed=%llu seconds=%g trace=%d: %zu requests in %.3f s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, untraced.requests.size(),
              untraced.elapsed_s);
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("box: %s\n", BoxJson(box).c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
