// The measured kernel layer: SIMD + memory-layout implementations of the
// hot loops every DCSGA solve runs — difference-graph row merge, discretize
// map, GD+ clamp sweep, dx (affinity) accumulation, gradient-extremes scan
// and the support reduction — behind one runtime ISA dispatcher.
//
// Exactness contract (the ROADMAP float-reassociation rule):
//  * Every kernel's default path is *bit-identical* to the scalar reference
//    it replaced, on every ISA and at every thread count. Elementwise work
//    (compare/select discretize, min-clamp, per-edge multiplies, the
//    strict-first-wins extremes scan) vectorizes exactly; anything that
//    would reassociate a floating-point sum does not vectorize by default.
//  * Reassociating variants exist only for the reductions and only behind
//    an explicit opt-in (DcsgaOptions::fast_math / SessionOptions::
//    fast_math, default off), with their own tolerance tests.
//  * No FMA contraction anywhere: the SIMD paths use explicit mul/add
//    intrinsics and the build sets -ffp-contract=off, so -DDCS_NATIVE
//    cannot silently fuse the scalar reference either.
//
// Dispatch: AVX2 variants are compiled with per-function target attributes
// (no global -mavx2 needed) and selected at runtime via CPUID; tests and
// benches can pin the ISA with ForceKernelIsa. The -DDCS_NATIVE CMake
// toggle additionally compiles the whole library with -march=native.
//
// Counters: every kernel bumps thread-local work counters (aggregated
// process-wide by KernelCountersSnapshot) that the api/ layer surfaces as
// MiningTelemetry kernel fields. Telemetry only — never part of a result.

#ifndef DCS_CORE_KERNELS_H_
#define DCS_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/difference.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Instruction set a kernel call executes with.
enum class KernelIsa : uint8_t {
  kScalar = 0,  ///< portable reference path (also the bit-identity oracle)
  kAvx2 = 1,    ///< AVX2 vector path (x86-64 with runtime CPUID support)
};

/// "scalar" or "avx2".
const char* KernelIsaName(KernelIsa isa);

/// True iff this process's CPU can execute the AVX2 variants.
bool KernelCpuHasAvx2();

/// The ISA kernel calls currently dispatch to: the forced override when one
/// is set, otherwise the best ISA the CPU supports.
KernelIsa ActiveKernelIsa();

/// \brief Pins dispatch to `isa` for the whole process — the tests/bench
/// override that makes "scalar vs vectorized" directly comparable. Checks
/// that the CPU supports the requested ISA.
void ForceKernelIsa(KernelIsa isa);

/// Returns dispatch to automatic CPU detection.
void ResetForcedKernelIsa();

/// \brief Process-lifetime kernel work counters, summed over all threads.
///
/// Element counts tally the work each kernel family processed; the
/// avx2_calls / scalar_calls pair splits kernel invocations by the ISA that
/// served them. Monotone; sample before/after a region to attribute work.
struct KernelCounters {
  uint64_t difference_rows = 0;      ///< rows merged by the difference build
  uint64_t discretize_elements = 0;  ///< weights pushed through the map
  uint64_t clamp_elements = 0;       ///< weights pushed through the clamp
  uint64_t axpy_elements = 0;        ///< edge visits in dx accumulation
  uint64_t extremes_scans = 0;       ///< gradient-extremes scans
  uint64_t support_reductions = 0;   ///< support-sum reductions
  uint64_t staged_lookups = 0;       ///< staged-row edge-weight lookups
  uint64_t avx2_calls = 0;           ///< kernel calls served by AVX2 code
  uint64_t scalar_calls = 0;         ///< kernel calls served by scalar code
};

/// Sums the per-thread counter blocks (live threads + exited ones).
KernelCounters KernelCountersSnapshot();

/// \brief Structure-of-arrays staging of a CSR adjacency: `targets` and
/// `weights` hold the same entries as the Graph's Neighbor array, row order
/// preserved, but split into dense u32 / f64 streams (16-byte AoS stride →
/// 4+8 byte SoA) so the per-seed kernels stream at full cache-line density.
void StageAdjacencySoa(const Graph& graph, std::vector<VertexId>* targets,
                       std::vector<double>* weights);

/// \brief Applies DiscretizeSpec::Map elementwise: out[i] = spec.Map(in[i]).
/// Exact on every ISA (compare/select only). In-place (out == in) allowed.
void DiscretizeMapPacked(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec);

/// \brief weights[i] = min(weights[i], cap) elementwise, std::min ordering.
/// Exact on every ISA.
void ClampAbovePacked(double* weights, size_t count, double cap);

/// \brief dx[targets[i]] += weights[i] * delta for i in [0, count) — the
/// AffinityState::SetX inner loop over one staged row. The products are
/// vectorized (one rounding each, never fused); the scatter adds run in row
/// order to distinct addresses, so the result is exact on every ISA.
/// Software-prefetches dx at upcoming targets of the sorted row.
void AxpyScatter(const VertexId* targets, const double* weights, size_t count,
                 double delta, double* dx);

/// Result of ScanGradientExtremes (mirrors
/// AffinityState::GradientExtremes).
struct GradExtremes {
  VertexId argmax = 0;
  VertexId argmin = 0;
  double max_grad = 0.0;
  double min_grad = 0.0;
};

/// \brief The CD pair-selection scan: over `candidates`, the largest
/// gradient 2·dx[k] among {x[k] < 1} and the smallest among {x[k] > 0},
/// each with the *first* index attaining it (strict first-wins, matching
/// the scalar running-max exactly — the vector path recomputes the returned
/// gradients from the winning indices, so even signed-zero bits match).
/// Returns false when either candidate set is empty.
bool ScanGradientExtremes(const VertexId* candidates, size_t count,
                          const double* x, const double* dx,
                          GradExtremes* out);

/// \brief f = Σ_i x[support[i]] · dx[support[i]].
///
/// With `allow_reassociation` false (the default everywhere), the sum runs
/// in support order with one rounding per term — bit-identical on every
/// ISA. True permits the 4-lane vector accumulation (deterministic for a
/// fixed count, but not bit-identical to the ordered sum); callers gate it
/// behind DcsgaOptions::fast_math.
double SupportReduce(const VertexId* support, size_t count, const double* x,
                     const double* dx, bool allow_reassociation);

/// \brief Binary search of `v` in a sorted staged row; returns the paired
/// weight or 0.0 when absent. Identical to Graph::EdgeWeight on the same
/// row, minus the AoS stride.
double StagedRowLookup(const VertexId* targets, const double* weights,
                       size_t count, VertexId v);

/// \brief Fills `order` with the vertex ids 0..mu.size()-1 sorted by the
/// smart-init seed order: descending mu, ties by ascending id (newsea's
/// SeedOrderLess). The scalar reference is the comparator introsort; the
/// dispatched path LSD-radix-sorts packed keys — each mu's IEEE bits with
/// −0 collapsed to +0, sign-flipped into a monotone unsigned integer and
/// complemented for descending order — skipping byte columns that are
/// constant across all keys (discretized pipelines concentrate mu on a
/// handful of values). Radix passes are stable and ids enter in ascending
/// order, so ties land exactly where the comparator puts them: the two
/// paths return the same order for every NaN-free input.
void SeedOrderSort(const std::vector<double>& mu,
                   std::vector<VertexId>* order);

/// \brief The graph-producing kernels. A friend of Graph so the fast paths
/// can emit CSR arrays directly (two-pass / single-pass construction)
/// instead of routing already-sorted rows through GraphBuilder's
/// sort-and-merge. Each is bit-identical — same vertices, edges and weight
/// bit patterns, hence equal ContentFingerprint — to the builder-based
/// reference implementation it shadows (graph/difference.h, graph/graph.h),
/// which GraphKernelsTest and KernelSolverTest (tests/core) assert.
class GraphKernels {
 public:
  /// Kernel twin of BuildDifferenceGraph (graph/difference.h): one merge
  /// pass over the paired sorted rows, emitting the symmetric CSR directly.
  static Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                            double alpha = 1.0);

  /// Kernel twin of DiscretizeWeights (graph/difference.h): stages the
  /// weights packed, maps them with DiscretizeMapPacked, then compacts the
  /// surviving entries row by row.
  static Result<Graph> DiscretizeWeights(const Graph& gd,
                                         const DiscretizeSpec& spec);

  /// Kernel twin of Graph::WeightsClampedAbove: clamps the copied Neighbor
  /// array in place (AVX2 blends the weight lanes of the 16-byte AoS
  /// layout, leaving the id lanes untouched bit for bit).
  static Graph WeightsClampedAbove(const Graph& gd, double cap);

  /// Kernel twin of Graph::PositivePart: one branchless compaction pass
  /// writing the kept rows straight into the output CSR (the reference does
  /// a count pass plus a push_back pass). Same keep rule (weight > 0.0),
  /// same order, same bits.
  static Graph PositivePart(const Graph& gd);
};

}  // namespace dcs

#endif  // DCS_CORE_KERNELS_H_
