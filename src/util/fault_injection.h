// Deterministic, seeded fault injection for the robustness test surface.
//
// Production code marks its failure-prone boundaries with *named sites*
// (store reads/appends, the advisory file lock, pipeline builds, thread-pool
// task dispatch) by calling FaultHit("site.name") at the point where an I/O
// or dispatch error would surface. A disarmed registry makes that call one
// relaxed atomic load — no lock, no map lookup, no branch history beyond a
// never-taken jump — so shipping the hooks costs nothing (the chaos test
// DisarmedHooksCostUnderOnePercentOfAMine pins the <1% bound). Tests and `dcs_mine --inject` arm sites with a
// FaultSpec; armed sites then fail (or stall) on a *deterministic* schedule.
//
// Determinism: the fire/no-fire decision for a site's N-th hit is a pure
// function of (spec, N) — an atomic per-site hit counter indexes the
// schedule, and the optional probabilistic coin is a splitmix64 hash of
// (seed, site, N), never a global RNG. Concurrent callers may interleave
// *which* operation draws which hit index, but the multiset of injected
// failures per site is exactly reproducible, which is what the chaos
// harness needs: storms are repeatable, and the set of surviving jobs must
// still be bit-identical to a fault-free run.
//
// Thread safety: all methods are safe from any thread. Arm/Reset are
// expected at quiescent points (test setup, main()); they take effect for
// hits that begin afterwards.
//
// The registry is process-global on purpose: the sites live in layers that
// must not know about each other (store/, api/, util/), and a test arms
// faults underneath a fully wired service without threading a handle
// through every constructor.

#ifndef DCS_UTIL_FAULT_INJECTION_H_
#define DCS_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/status.h"

namespace dcs {

/// Canonical site names, so call sites, tests and `--inject` specs agree on
/// spelling. These are the sites libdcs itself checks; kKnownSites is the
/// registry Parse validates text specs against. Custom solvers may still arm
/// their own sites programmatically — Arm() stays permissive; only the
/// text/CLI path rejects unknown names, because a typo there used to arm a
/// dead hook silently.
namespace fault_sites {
inline constexpr const char kStoreRead[] = "store.read";
inline constexpr const char kStoreAppend[] = "store.append";
inline constexpr const char kStoreFlock[] = "store.flock";
inline constexpr const char kCacheBuild[] = "cache.build";
inline constexpr const char kPoolDispatch[] = "pool.dispatch";
inline constexpr const char kJournalAppend[] = "journal.append";
inline constexpr const char kJournalFsync[] = "journal.fsync";
inline constexpr const char kJournalReplay[] = "journal.replay";

/// Every site registered above, for Parse validation and `--inject` help.
inline constexpr const char* const kKnownSites[] = {
    kStoreRead,  kStoreAppend,   kStoreFlock,  kCacheBuild,
    kPoolDispatch, kJournalAppend, kJournalFsync, kJournalReplay};
}  // namespace fault_sites

/// \brief The failure schedule of one armed site.
///
/// A hit is *eligible* once the first `after` hits passed and, with
/// `every > 1`, only every `every`-th eligible hit. An eligible hit then
/// fires iff the deterministic coin (probability `prob`, seeded by
/// `seed`/site/hit-index) comes up, and the site has fired fewer than
/// `times` times (0 = unlimited). A firing hit sleeps `delay_ms` first
/// (latency injection — the lever for mid-I/O race tests), then reports
/// failure unless `fail` is false (delay-only site). With `crash` set, a
/// firing hit abort()s the process after the delay instead of returning —
/// the deterministic kill-at-fault-site lever of the crash-recovery
/// harness (tests/crash).
struct FaultSpec {
  std::string site;
  uint64_t every = 1;
  uint64_t after = 0;
  uint64_t times = 0;
  double prob = 1.0;
  uint64_t seed = 0;
  double delay_ms = 0.0;
  bool fail = true;
  bool crash = false;
};

/// \brief The process-global registry of armed fault sites. See the file
/// comment for the determinism and overhead contract.
class FaultInjection {
 public:
  static FaultInjection& Global();

  /// Arms `spec` (replacing any armed spec for the same site, resetting its
  /// counters). Fails on an empty site name or non-finite/negative knobs.
  Status Arm(FaultSpec spec);

  /// Parses and arms a `--inject` spec string; multiple sites separated by
  /// ';'. Grammar per site: `name[:key=value[,key=value...]]` with keys
  /// every, after, times, prob, seed, delay_ms, fail, crash — e.g.
  /// `store.append:every=1,times=3;store.read:prob=0.5,seed=7`.
  Status ArmText(const std::string& text);

  /// Parses one `name[:key=value,...]` spec without arming it. The site
  /// name must be one of fault_sites::kKnownSites — an unknown name fails
  /// with InvalidArgument listing the valid sites, instead of arming a dead
  /// hook silently. (Arm() itself accepts any non-empty site, so custom
  /// solver sites stay reachable programmatically.)
  static Result<FaultSpec> Parse(const std::string& text);

  /// Disarms every site and zeroes all counters. The global armed flag
  /// drops, restoring the zero-overhead path.
  void Reset();

  /// \brief Counts a hit at `site` and returns true when the injected fault
  /// fires (after any injected delay). False — without counting — for sites
  /// that are not armed. Callers go through the free function FaultHit,
  /// which short-circuits when nothing is armed anywhere.
  bool Hit(const char* site);

  /// The Status an injected failure surfaces as (IoError naming the site),
  /// so every fault path is greppable in logs and test output.
  static Status InjectedError(const char* site);

  /// Hits counted / faults fired at `site` since it was armed.
  uint64_t hits(const std::string& site) const;
  uint64_t fires(const std::string& site) const;
  /// Faults fired across all sites since the last Reset.
  uint64_t total_fires() const;

  /// True when any site is armed — the one load on the disarmed hot path.
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

 private:
  struct SiteState {
    FaultSpec spec;
    uint64_t hit_count = 0;
    uint64_t fire_count = 0;
  };

  FaultInjection() = default;

  static std::atomic<bool> armed_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, SiteState> sites_;
  uint64_t total_fires_ = 0;
};

/// \brief The one call production code makes at a fault site. Disarmed cost:
/// a single relaxed atomic load.
inline bool FaultHit(const char* site) {
  if (!FaultInjection::armed()) return false;
  return FaultInjection::Global().Hit(site);
}

}  // namespace dcs

#endif  // DCS_UTIL_FAULT_INJECTION_H_
