// The measured kernel layer: SIMD implementations of the hot loops every
// DCSGA solve runs — dx (affinity) accumulation, the gradient-extremes
// scan, the support reduction and the smart-init seed sort — behind one
// runtime ISA dispatcher. The kernels read the Graph's own target and
// weight arrays in place (graph/graph.h owns the one adjacency layout), and
// the pipeline's graph steps (difference, discretize, clamp, GD+) have one
// body each, in graph/.
//
// Exactness contract (the ROADMAP float-reassociation rule):
//  * Every kernel is *bit-identical* to the scalar reference it replaced,
//    on every ISA and at every thread count. Elementwise work (per-edge
//    multiplies, the strict-first-wins extremes scan) vectorizes exactly;
//    anything that would reassociate a floating-point sum does not
//    vectorize: reductions vectorize only their elementwise products and
//    replay the sum in order.
//  * No FMA contraction anywhere: the SIMD paths use explicit mul/add
//    intrinsics and the build sets -ffp-contract=off, so -DDCS_NATIVE
//    cannot silently fuse the scalar reference either.
//
// Dispatch: AVX2 variants are compiled with per-function target attributes
// (no global -mavx2 needed) and selected at runtime via CPUID; tests and
// benches can pin the ISA with ForceKernelIsa. The -DDCS_NATIVE CMake
// toggle additionally compiles the whole library with -march=native.

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

/// \brief dx[targets[i]] += weights[i] * delta for i in [0, count) — the
/// AffinityState::SetX inner loop over one graph row. The products are
/// vectorized (one rounding each, never fused); the scatter adds run in row
/// order to distinct addresses, so the result is exact on every ISA.
/// Software-prefetches dx at upcoming targets of the sorted row.
void AxpyScatter(const VertexId* targets, const double* weights, size_t count,
                 double delta, double* dx);

/// Result of ScanGradientExtremes and AffinityState::ComputeExtremes.
struct GradExtremes {
  VertexId argmax = 0;
  VertexId argmin = 0;
  double max_grad = 0.0;  // ∇ = 2·dx
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

/// \brief f = Σ_i x[support[i]] · dx[support[i]], summed in support order
/// with one rounding per term — bit-identical on every ISA.
double SupportReduce(const VertexId* support, size_t count, const double* x,
                     const double* dx);

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

/// \brief Two forwards kept only for the repository benchmark:
/// perfbench/workloads.cc calls them, and the benchmark builds the previous
/// commit's perfbench/ against this src/ (ARCHITECTURE.md, "The benchmark's
/// compile contract"). Library code calls the graph/ bodies directly.
class GraphKernels {
 public:
  /// Contract-only forward to BuildDifferenceGraph (graph/difference.h).
  static Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                            double alpha = 1.0) {
    return dcs::BuildDifferenceGraph(g1, g2, alpha);
  }

  /// Contract-only forward to Graph::PositivePart (graph/graph.h).
  static Graph PositivePart(const Graph& gd) { return gd.PositivePart(); }
};

}  // namespace dcs

#endif  // DCS_CORE_KERNELS_H_
