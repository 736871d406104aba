// The three perfbench workloads.
//
//   ad_alpha_sweep  one closed-loop client, DCSAD-only requests (top-1) over a
//                   Chung–Lu pair, cycling 12 alphas — more than the 8-entry
//                   pipeline cache holds, so every request rebuilds.
//   ga_alpha_sweep  one closed-loop client, DCSGA top-1 requests over 13
//                   planted signed_pair analogs, cycling the same 12 alphas.
//   tenant_stream   a MiningService with 3 tenants, 2 executors, a shared
//                   PipelineCache, an ArtifactStore and a group-commit
//                   journal; one closed-loop client per tenant, with a
//                   fenced batch of edge updates before every 4th request.
//                   Set-up is a restart over the store and journal an
//                   earlier, untimed lifetime left behind.
//
// Every workload builds its inputs from the seed when constructed (untimed),
// is brought to ready by SetUp (timed by the caller, several times), and
// runs its untraced closed loop in Run. Replay re-runs the same request
// sequence from a fresh SetUp with spans around the public layer calls.

#ifndef DCS_PERFBENCH_WORKLOADS_H_
#define DCS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/mining.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Directory for run artifacts: digests, spans, store/journal files.
  std::string out_dir;
};

/// One request of a closed loop.
struct RequestRecord {
  uint32_t stream = 0;     ///< client (tenant) the request belongs to
  uint64_t index = 0;      ///< position in that client's request sequence
  double latency_ms = 0.0; ///< as the client saw it
  bool done = false;       ///< completed with a response
  uint64_t root_span = 0;  ///< the request's root span (traced replay only)
  dcs::MiningResponse response;
};

struct Phase {
  std::vector<RequestRecord> requests;
  uint64_t attempted = 0;
  double elapsed_s = 0.0;
};

/// Counts the traced replay gathers, by per-layer metric name (sums over
/// the replayed requests).
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Brings the system under test to ready; each call starts over. Returns
  /// the seconds the set-up proper took (copying inputs is excluded).
  virtual double SetUp() = 0;
  /// The untraced closed loop: issues requests for `seconds`.
  virtual Phase Run(double seconds) = 0;
  /// Re-runs the request sequence of `untraced` from a fresh SetUp with
  /// spans recorded into `tracer`, re-running inner layer calls on the same
  /// inputs as child spans. Appends to `violations` when a re-run layer call
  /// disagrees with the response it is attributed to.
  virtual Phase Replay(const Phase& untraced, Tracer* tracer,
                       Counters* counters,
                       std::vector<std::string>* violations) = 0;
  /// The correctness gate over every response of `phase`.
  virtual void Check(const Phase& phase,
                     std::vector<std::string>* violations) const = 0;
};

/// Generates the inputs of `config.workload`; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_WORKLOADS_H_
