// DescentMemo — per-seed outcomes of the DCSGA seed driver, kept across
// solves on one GD+ and carried across streaming patches of it.
//
// NewSEA (Algorithm 5) and the all-inits harvest run one SEACD + Refinement
// descent per seed, and each descent is a pure function of its seed, its
// options and the GD+ rows it read (core/newsea.cc states the proof above
// the seed driver). A record keeps what the driver consumes from a descent —
// the refined clique with the bits of its embedding mass, the affinity bits
// and the coordinate-descent iterations — plus the descent's read set. The
// driver replays a recorded seed instead of descending again; the replay
// adds the same counters, so results, clique records and telemetry are
// bit-identical to a fresh descent.
//
// Invalidation: a streaming patch rewrites only the rows of the endpoints of
// the pairs whose GD+ weight changed. CarriedOver copies every record whose
// read set avoids them into the patched pipeline's memo and drops the rest.
//
// A memo serves one descent configuration — Shrink by coordinate descent
// and fixed SEACD and refinement options — bound by the first solve that
// uses it (Serves); a solve under other options bypasses the memo.
//
// Thread safety: every method may be called concurrently (the shards of one
// solve and solves of several sessions on one cached pipeline). Find is
// lock-free; records are immutable once inserted and shared between a memo
// and the memos carried over from it.

#ifndef DCS_CORE_DESCENT_MEMO_H_
#define DCS_CORE_DESCENT_MEMO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/newsea.h"
#include "graph/graph.h"

namespace dcs {

/// What one seed's descent left behind, as the seed driver consumes it.
struct DescentRecord {
  VertexId seed = 0;
  double affinity = 0.0;        ///< refined affinity, bit for bit
  uint64_t cd_iterations = 0;   ///< SEACD plus Refinement iterations
  std::vector<VertexId> members;///< the refined support, ascending
  std::vector<double> weights;  ///< x of `members`, bit for bit
  /// Every vertex whose GD+ row the descent read (AffinityState::read_set).
  std::vector<VertexId> read_set;

  size_t ApproxBytes() const;
};

/// \brief Per-seed descent records of one GD+. See the file comment.
class DescentMemo {
 public:
  DescentMemo() = default;
  DescentMemo(const DescentMemo&) = delete;
  DescentMemo& operator=(const DescentMemo&) = delete;

  /// \brief True when this memo may serve descents under `options` on a
  /// graph of `num_vertices` vertices. The first call binds the memo to
  /// them; later calls accept only the same vertex count, coordinate-descent
  /// Shrink and bit-equal `seacd` and `refinement_descent` options.
  bool Serves(VertexId num_vertices, const DcsgaOptions& options);

  /// The record of `seed`, or null. Only after Serves returned true.
  const DescentRecord* Find(VertexId seed) const {
    return slots_[seed].load(std::memory_order_acquire);
  }

  /// Inserts `record` unless its seed already has one (a racing descent of
  /// the same seed, bit-identical), and returns the resident record.
  const DescentRecord* Insert(DescentRecord record);

  /// \brief A memo for the patched GD+ that holds every record of this one
  /// whose read set avoids all of `changed_endpoints` (the endpoints of the
  /// pairs whose GD+ weight the patch changed), bound to the same options.
  std::shared_ptr<DescentMemo> CarriedOver(
      std::span<const VertexId> changed_endpoints) const;

  /// Seeds replayed from this memo (instead of descended) so far.
  void CountReplays(uint64_t replays) {
    replays_.fetch_add(replays, std::memory_order_relaxed);
  }
  uint64_t replays() const { return replays_.load(std::memory_order_relaxed); }

  /// Records held.
  size_t size() const;

  /// Approximate heap footprint, charged to the pipeline cache's budget.
  size_t ApproxBytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  // The descent configuration a record is valid for.
  struct Binding {
    VertexId num_vertices = 0;
    uint64_t seacd_epsilon_bits = 0;
    uint64_t seacd_max_iterations = 0;
    uint32_t seacd_max_rounds = 0;
    uint64_t refinement_epsilon_bits = 0;
    uint64_t refinement_max_iterations = 0;
    friend bool operator==(const Binding&, const Binding&) = default;
  };

  // Binds to `binding` and sizes the slots. Mutex held.
  void BindLocked(const Binding& binding);
  // Adds a record known to be absent. Mutex held.
  void AdoptLocked(std::shared_ptr<const DescentRecord> record);

  mutable std::mutex mutex_;
  bool bound_ = false;
  Binding binding_;
  // One slot per vertex, written under the mutex, read lock-free.
  std::unique_ptr<std::atomic<const DescentRecord*>[]> slots_;
  // Owns the slots' records (shared with the memos carried over from here).
  std::vector<std::shared_ptr<const DescentRecord>> records_;
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> replays_{0};
};

}  // namespace dcs

#endif  // DCS_CORE_DESCENT_MEMO_H_
