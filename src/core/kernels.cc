#include "core/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DCS_KERNELS_X86 1
#include <immintrin.h>
#else
#define DCS_KERNELS_X86 0
#endif

namespace dcs {

namespace {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};

bool DetectAvx2() {
#if DCS_KERNELS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if DCS_KERNELS_X86
// True when this call should take the AVX2 variant.
inline bool UseAvx2() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  return forced >= 0 ? forced == static_cast<int>(KernelIsa::kAvx2)
                     : KernelCpuHasAvx2();
}
#endif  // DCS_KERNELS_X86

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelCpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

KernelIsa ActiveKernelIsa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelIsa>(forced);
  return KernelCpuHasAvx2() ? KernelIsa::kAvx2 : KernelIsa::kScalar;
}

void ForceKernelIsa(KernelIsa isa) {
  DCS_CHECK(isa == KernelIsa::kScalar || KernelCpuHasAvx2())
      << "forced ISA not supported by this CPU";
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ResetForcedKernelIsa() {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

void StageAdjacencySoa(const Graph& graph, std::vector<VertexId>* targets,
                       std::vector<double>* weights) {
  const size_t total = 2 * graph.NumEdges();
  targets->clear();
  weights->clear();
  targets->reserve(total);
  weights->reserve(total);
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      targets->push_back(nb.to);
      weights->push_back(nb.weight);
    }
  }
}

// ---------------------------------------------------------------------------
// Discretize map
// ---------------------------------------------------------------------------

namespace {

void DiscretizeMapScalar(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec) {
  for (size_t i = 0; i < count; ++i) out[i] = spec.Map(in[i]);
}

#if DCS_KERNELS_X86
// Exact vector transliteration of DiscretizeSpec::Map: a blend chain whose
// later conditions are exactly the scalar branch priorities ({d >= strong}
// inside {d >= weak}, {d <= strong_neg} inside {d < 0}); NaN takes no branch
// in either form and maps to 0.
__attribute__((target("avx2"))) void DiscretizeMapAvx2(
    const double* in, double* out, size_t count, const DiscretizeSpec& spec) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sp = _mm256_set1_pd(spec.strong_pos);
  const __m256d wp = _mm256_set1_pd(spec.weak_pos);
  const __m256d sn = _mm256_set1_pd(spec.strong_neg);
  const __m256d l1 = _mm256_set1_pd(spec.level_one);
  const __m256d l2 = _mm256_set1_pd(spec.level_two);
  const __m256d nl1 = _mm256_set1_pd(-spec.level_one);
  const __m256d nl2 = _mm256_set1_pd(-spec.level_two);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d d = _mm256_loadu_pd(in + i);
    __m256d r = zero;
    r = _mm256_blendv_pd(r, nl1, _mm256_cmp_pd(d, zero, _CMP_LT_OQ));
    r = _mm256_blendv_pd(r, nl2, _mm256_cmp_pd(d, sn, _CMP_LE_OQ));
    r = _mm256_blendv_pd(r, l1, _mm256_cmp_pd(d, wp, _CMP_GE_OQ));
    r = _mm256_blendv_pd(r, l2, _mm256_cmp_pd(d, sp, _CMP_GE_OQ));
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < count; ++i) out[i] = spec.Map(in[i]);
}
#endif  // DCS_KERNELS_X86

}  // namespace

void DiscretizeMapPacked(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec) {
#if DCS_KERNELS_X86
  if (UseAvx2()) {
    DiscretizeMapAvx2(in, out, count, spec);
    return;
  }
#endif
  DiscretizeMapScalar(in, out, count, spec);
}

// ---------------------------------------------------------------------------
// Clamp
// ---------------------------------------------------------------------------

namespace {

void ClampScalar(double* weights, size_t count, double cap) {
  for (size_t i = 0; i < count; ++i) {
    weights[i] = std::min(weights[i], cap);
  }
}

#if DCS_KERNELS_X86
// std::min(w, cap) bit semantics: take cap only when cap < w, otherwise keep
// w's bits (including when equal) — a blendv on (cap < w), not min_pd.
__attribute__((target("avx2"))) inline __m256d MinStd(__m256d w, __m256d cap) {
  return _mm256_blendv_pd(w, cap, _mm256_cmp_pd(cap, w, _CMP_LT_OQ));
}

__attribute__((target("avx2"))) void ClampAvx2(double* weights, size_t count,
                                               double cap) {
  const __m256d capv = _mm256_set1_pd(cap);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_pd(weights + i, MinStd(_mm256_loadu_pd(weights + i), capv));
  }
  for (; i < count; ++i) weights[i] = std::min(weights[i], cap);
}

// Clamp over the Neighbor AoS layout: each 32-byte load covers two
// neighbors, with lanes 0/2 holding the packed vertex ids and lanes 1/3 the
// weights. The blend writes only the weight lanes, so the id lanes pass
// through bit-exact (the spurious FP compare on id-bit patterns can at worst
// set exception flags, which libdcs never reads).
__attribute__((target("avx2"))) void ClampAosAvx2(Neighbor* neighbors,
                                                  size_t count, double cap) {
  static_assert(sizeof(Neighbor) == 16 && offsetof(Neighbor, weight) == 8,
                "AoS clamp assumes {u32 id, pad, f64 weight} layout");
  const __m256d capv = _mm256_set1_pd(cap);
  double* raw = reinterpret_cast<double*>(neighbors);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d v = _mm256_loadu_pd(raw + 2 * i);
    _mm256_storeu_pd(raw + 2 * i, _mm256_blend_pd(v, MinStd(v, capv), 0b1010));
  }
  for (; i < count; ++i) {
    neighbors[i].weight = std::min(neighbors[i].weight, cap);
  }
}
#endif  // DCS_KERNELS_X86

void ClampAosWeights(Neighbor* neighbors, size_t count, double cap) {
#if DCS_KERNELS_X86
  if (UseAvx2()) {
    ClampAosAvx2(neighbors, count, cap);
    return;
  }
#endif
  for (size_t i = 0; i < count; ++i) {
    neighbors[i].weight = std::min(neighbors[i].weight, cap);
  }
}

}  // namespace

void ClampAbovePacked(double* weights, size_t count, double cap) {
#if DCS_KERNELS_X86
  if (UseAvx2()) {
    ClampAvx2(weights, count, cap);
    return;
  }
#endif
  ClampScalar(weights, count, cap);
}

// ---------------------------------------------------------------------------
// dx accumulation (SetX inner loop)
// ---------------------------------------------------------------------------

namespace {

void AxpyScatterScalar(const VertexId* targets, const double* weights,
                       size_t count, double delta, double* dx) {
  for (size_t i = 0; i < count; ++i) {
    dx[targets[i]] += weights[i] * delta;
  }
}

#if DCS_KERNELS_X86
// Vectorizes the weight·delta products (one rounding each, no contraction —
// explicit mul, and the TU is built with -ffp-contract=off); the scatter
// adds stay scalar *in row order*, so the dx updates are bit-identical to
// the scalar loop. Rows are sorted, so prefetching dx at targets one chunk
// ahead hides the dependent-load latency of the scatter.
__attribute__((target("avx2"))) void AxpyScatterAvx2(const VertexId* targets,
                                                     const double* weights,
                                                     size_t count, double delta,
                                                     double* dx) {
  const __m256d dsplat = _mm256_set1_pd(delta);
  alignas(32) double prod[4];
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    if (i + 8 <= count) {
      _mm_prefetch(reinterpret_cast<const char*>(dx + targets[i + 4]),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(dx + targets[i + 7]),
                   _MM_HINT_T0);
    }
    _mm256_store_pd(prod, _mm256_mul_pd(_mm256_loadu_pd(weights + i), dsplat));
    dx[targets[i]] += prod[0];
    dx[targets[i + 1]] += prod[1];
    dx[targets[i + 2]] += prod[2];
    dx[targets[i + 3]] += prod[3];
  }
  for (; i < count; ++i) {
    dx[targets[i]] += weights[i] * delta;
  }
}
#endif  // DCS_KERNELS_X86

}  // namespace

void AxpyScatter(const VertexId* targets, const double* weights, size_t count,
                 double delta, double* dx) {
#if DCS_KERNELS_X86
  if (UseAvx2()) {
    AxpyScatterAvx2(targets, weights, count, delta, dx);
    return;
  }
#endif
  AxpyScatterScalar(targets, weights, count, delta, dx);
}

// ---------------------------------------------------------------------------
// Gradient extremes scan (CD pair selection)
// ---------------------------------------------------------------------------

namespace {

bool ScanExtremesScalar(const VertexId* candidates, size_t count,
                        const double* x, const double* dx, GradExtremes* out) {
  bool has_max = false, has_min = false;
  for (size_t i = 0; i < count; ++i) {
    const VertexId k = candidates[i];
    const double grad = 2.0 * dx[k];
    if (x[k] < 1.0 && (!has_max || grad > out->max_grad)) {
      out->argmax = k;
      out->max_grad = grad;
      has_max = true;
    }
    if (x[k] > 0.0 && (!has_min || grad < out->min_grad)) {
      out->argmin = k;
      out->min_grad = grad;
      has_min = true;
    }
  }
  return has_max && has_min;
}

#if DCS_KERNELS_X86
// Two-phase exact scan: a gather/max vector pass finds the numeric max/min
// gradient over the eligible sets (ineligible lanes blended to ∓inf), then a
// scalar pass recovers the *first* index attaining each — precisely the
// index the scalar running compare keeps, because a later equal value never
// wins a strict compare. The returned gradients are recomputed from the
// winning indices, so even the ±0.0 sign bits match the scalar scan.
__attribute__((target("avx2"))) bool ScanExtremesAvx2(
    const VertexId* candidates, size_t count, const double* x,
    const double* dx, GradExtremes* out) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  const double kPosInf = std::numeric_limits<double>::infinity();
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ninf = _mm256_set1_pd(kNegInf);
  const __m256d pinf = _mm256_set1_pd(kPosInf);
  __m256d vmax = ninf;
  __m256d vmin = pinf;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(candidates + i));
    const __m256d xv = _mm256_i32gather_pd(x, idx, 8);
    const __m256d grad = _mm256_mul_pd(two, _mm256_i32gather_pd(dx, idx, 8));
    vmax = _mm256_max_pd(
        vmax, _mm256_blendv_pd(ninf, grad, _mm256_cmp_pd(xv, one, _CMP_LT_OQ)));
    vmin = _mm256_min_pd(
        vmin,
        _mm256_blendv_pd(pinf, grad, _mm256_cmp_pd(xv, zero, _CMP_GT_OQ)));
  }
  const __m128d max_halves = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                                        _mm256_extractf128_pd(vmax, 1));
  double best_max =
      _mm_cvtsd_f64(_mm_max_sd(max_halves, _mm_unpackhi_pd(max_halves, max_halves)));
  const __m128d min_halves = _mm_min_pd(_mm256_castpd256_pd128(vmin),
                                        _mm256_extractf128_pd(vmin, 1));
  double best_min =
      _mm_cvtsd_f64(_mm_min_sd(min_halves, _mm_unpackhi_pd(min_halves, min_halves)));
  for (; i < count; ++i) {
    const VertexId k = candidates[i];
    const double grad = 2.0 * dx[k];
    if (x[k] < 1.0 && grad > best_max) best_max = grad;
    if (x[k] > 0.0 && grad < best_min) best_min = grad;
  }
  const bool has_max = best_max > kNegInf;
  const bool has_min = best_min < kPosInf;
  if (!has_max || !has_min) return false;
  bool found_max = false, found_min = false;
  for (size_t j = 0; j < count && !(found_max && found_min); ++j) {
    const VertexId k = candidates[j];
    const double grad = 2.0 * dx[k];
    if (!found_max && x[k] < 1.0 && grad == best_max) {
      out->argmax = k;
      found_max = true;
    }
    if (!found_min && x[k] > 0.0 && grad == best_min) {
      out->argmin = k;
      found_min = true;
    }
  }
  DCS_CHECK(found_max && found_min);
  out->max_grad = 2.0 * dx[out->argmax];
  out->min_grad = 2.0 * dx[out->argmin];
  return true;
}
#endif  // DCS_KERNELS_X86

}  // namespace

bool ScanGradientExtremes(const VertexId* candidates, size_t count,
                          const double* x, const double* dx,
                          GradExtremes* out) {
#if DCS_KERNELS_X86
  if (count >= 8 && UseAvx2()) {
    return ScanExtremesAvx2(candidates, count, x, dx, out);
  }
#endif
  return ScanExtremesScalar(candidates, count, x, dx, out);
}

// ---------------------------------------------------------------------------
// Support reduction
// ---------------------------------------------------------------------------

namespace {

double SupportReduceScalar(const VertexId* support, size_t count,
                           const double* x, const double* dx) {
  double f = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const VertexId v = support[i];
    f += x[v] * dx[v];
  }
  return f;
}

#if DCS_KERNELS_X86
// The products x_v·dx_v are gathered and multiplied in vectors
// (elementwise, one rounding each), but the accumulation replays them in
// support order — the sum sequence is instruction-for-instruction the
// scalar reduction, so the result is bit-identical.
__attribute__((target("avx2"))) double SupportReduceAvx2(
    const VertexId* support, size_t count, const double* x, const double* dx) {
  alignas(32) double prod[4];
  double f = 0.0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(support + i));
    _mm256_store_pd(prod, _mm256_mul_pd(_mm256_i32gather_pd(x, idx, 8),
                                        _mm256_i32gather_pd(dx, idx, 8)));
    f += prod[0];
    f += prod[1];
    f += prod[2];
    f += prod[3];
  }
  for (; i < count; ++i) {
    const VertexId v = support[i];
    f += x[v] * dx[v];
  }
  return f;
}

#endif  // DCS_KERNELS_X86

}  // namespace

double SupportReduce(const VertexId* support, size_t count, const double* x,
                     const double* dx) {
#if DCS_KERNELS_X86
  if (count >= 8 && UseAvx2()) {
    return SupportReduceAvx2(support, count, x, dx);
  }
#endif
  return SupportReduceScalar(support, count, x, dx);
}

double StagedRowLookup(const VertexId* targets, const double* weights,
                       size_t count, VertexId v) {
  const VertexId* end = targets + count;
  const VertexId* it = std::lower_bound(targets, end, v);
  if (it == end || *it != v) return 0.0;
  return weights[it - targets];
}

void SeedOrderSort(const std::vector<double>& mu,
                   std::vector<VertexId>* order) {
  const size_t n = mu.size();
  order->resize(n);
  if (ActiveKernelIsa() == KernelIsa::kScalar) {
    std::iota(order->begin(), order->end(), VertexId{0});
    std::sort(order->begin(), order->end(), [&mu](VertexId a, VertexId b) {
      return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
    });
    return;
  }
  // Pack each mu into a key whose unsigned ascending order is exactly
  // "descending mu": collapse −0 to +0, sign-flip the IEEE bits into a
  // monotone unsigned integer, complement. Equal mu ⇔ equal key, so a
  // stable sort of the keys reproduces the comparator's ascending-id
  // tie-break by construction.
  constexpr uint64_t kSignBit = 0x8000000000000000ull;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &mu[i], sizeof bits);
    if (bits == kSignBit) bits = 0;  // −0 → +0
    const uint64_t ascending = (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
    keys[i] = ~ascending;
  }

  // Fast path: distinct-value counting sort. Discretized pipelines
  // concentrate mu on a handful of values (levels × small core numbers), so
  // one open-addressed table pass + a sort of the distinct keys + one
  // stable scatter replaces eight radix passes. Bail to radix when the
  // distinct count grows past the table's comfort zone.
  constexpr size_t kMaxDistinct = 1024;
  constexpr size_t kTableSize = 4096;  // power of two, ≥ 4× kMaxDistinct
  constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  const auto probe = [](uint64_t key) {
    // SplitMix64 finalizer: deterministic, well-mixed table index.
    uint64_t h = key + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>((h ^ (h >> 31)) & (kTableSize - 1));
  };
  std::vector<uint64_t> slot_key(kTableSize);
  std::vector<uint32_t> slot_count(kTableSize, kEmpty);
  std::vector<size_t> used;
  used.reserve(kMaxDistinct);
  bool counting_ok = true;
  for (size_t i = 0; i < n && counting_ok; ++i) {
    size_t s = probe(keys[i]);
    while (slot_count[s] != kEmpty && slot_key[s] != keys[i]) {
      s = (s + 1) & (kTableSize - 1);
    }
    if (slot_count[s] == kEmpty) {
      if (used.size() == kMaxDistinct) {
        counting_ok = false;
        break;
      }
      slot_key[s] = keys[i];
      slot_count[s] = 1;
      used.push_back(s);
    } else {
      ++slot_count[s];
    }
  }
  if (counting_ok) {
    // Ascending key = descending mu. Turn counts into start offsets in key
    // order, then scatter ids in input (= ascending id) order: stable.
    std::sort(used.begin(), used.end(), [&](size_t a, size_t b) {
      return slot_key[a] < slot_key[b];
    });
    uint32_t running = 0;
    for (const size_t s : used) {
      const uint32_t count = slot_count[s];
      slot_count[s] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      size_t s = probe(keys[i]);
      while (slot_key[s] != keys[i]) s = (s + 1) & (kTableSize - 1);
      (*order)[slot_count[s]++] = static_cast<VertexId>(i);
    }
    return;
  }

  // Generic fallback: stable LSD radix over the 8 key bytes, ids riding
  // along; byte columns where every key agrees permute nothing and are
  // skipped.
  std::vector<uint64_t> scratch_keys(n);
  std::vector<VertexId> ids(n), scratch_ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<VertexId>(i);
  for (int shift = 0; shift < 64; shift += 8) {
    size_t hist[256] = {0};
    for (size_t i = 0; i < n; ++i) ++hist[(keys[i] >> shift) & 0xFF];
    if (n != 0 && hist[(keys[0] >> shift) & 0xFF] == n) continue;
    size_t running = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t count = hist[b];
      hist[b] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t dst = hist[(keys[i] >> shift) & 0xFF]++;
      scratch_keys[dst] = keys[i];
      scratch_ids[dst] = ids[i];
    }
    keys.swap(scratch_keys);
    ids.swap(scratch_ids);
  }
  *order = std::move(ids);
}

// ---------------------------------------------------------------------------
// Graph-producing kernels
// ---------------------------------------------------------------------------

Result<Graph> GraphKernels::BuildDifferenceGraph(const Graph& g1,
                                                 const Graph& g2,
                                                 double alpha) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument(
        "difference graph requires equal vertex sets: n1=" +
        std::to_string(g1.NumVertices()) +
        " n2=" + std::to_string(g2.NumVertices()));
  }
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be finite and positive");
  }
  const VertexId n = g1.NumVertices();
  // Single merge pass emitting the symmetric CSR directly. Both directions
  // of an edge compute d from the same operand bits (undirected rows store
  // the same weight both ways), so the rows come out mirror-identical, and
  // the keep rule |d| > kDefaultZeroEps is exactly the reference path's
  // "emit d != 0.0, then GraphBuilder::Build drops |w| <= zero_eps" (each
  // pair is emitted once there, so no accumulation intervenes).
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<Neighbor> neighbors;
  neighbors.reserve(g1.neighbors_.size() + g2.neighbors_.size());
  for (VertexId u = 0; u < n; ++u) {
    const auto row1 = g1.NeighborsOf(u);
    const auto row2 = g2.NeighborsOf(u);
    size_t i = 0, j = 0;
    while (i < row1.size() || j < row2.size()) {
      VertexId v;
      double d;
      if (j == row2.size() || (i < row1.size() && row1[i].to < row2[j].to)) {
        v = row1[i].to;
        d = -alpha * row1[i].weight;
        ++i;
      } else if (i == row1.size() || row2[j].to < row1[i].to) {
        v = row2[j].to;
        d = row2[j].weight;
        ++j;
      } else {
        v = row1[i].to;
        d = row2[j].weight - alpha * row1[i].weight;
        ++i;
        ++j;
      }
      if (!std::isfinite(d)) {
        return Status::InvalidArgument("non-finite edge weight");
      }
      if (std::fabs(d) > kDefaultZeroEps) {
        neighbors.push_back(Neighbor{v, d});
      }
    }
    offsets[u + 1] = neighbors.size();
  }
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

Result<Graph> GraphKernels::DiscretizeWeights(const Graph& gd,
                                              const DiscretizeSpec& spec) {
  DCS_RETURN_NOT_OK(spec.Validate());
  const VertexId n = gd.NumVertices();
  const size_t total = gd.neighbors_.size();
  // Stage the weights packed, map them in one vectorized sweep, then compact
  // the survivors row by row. Keep rule mirrors the reference (emit mapped
  // != 0.0, builder drops |w| <= zero_eps); the mapped levels are identical
  // bits in both row directions, so the output stays mirror-symmetric.
  std::vector<double> mapped(total);
  for (size_t i = 0; i < total; ++i) mapped[i] = gd.neighbors_[i].weight;
  DiscretizeMapPacked(mapped.data(), mapped.data(), total, spec);
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<Neighbor> neighbors;
  neighbors.reserve(total);
  for (VertexId u = 0; u < n; ++u) {
    const size_t begin = gd.offsets_[u];
    const size_t end = gd.offsets_[u + 1];
    for (size_t i = begin; i < end; ++i) {
      const double m = mapped[i];
      if (m != 0.0 && std::fabs(m) > kDefaultZeroEps) {
        neighbors.push_back(Neighbor{gd.neighbors_[i].to, m});
      }
    }
    offsets[u + 1] = neighbors.size();
  }
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph GraphKernels::PositivePart(const Graph& gd) {
  const VertexId n = gd.NumVertices();
  // Branchless single-pass compaction: every neighbor is written, the write
  // cursor only advances past the kept ones. Keep rule and order match the
  // reference exactly, so the CSR comes out bit-identical.
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<Neighbor> neighbors(gd.neighbors_.size());
  size_t out = 0;
  for (VertexId u = 0; u < n; ++u) {
    const size_t end = gd.offsets_[u + 1];
    for (size_t i = gd.offsets_[u]; i < end; ++i) {
      const Neighbor nb = gd.neighbors_[i];
      neighbors[out] = nb;
      out += nb.weight > 0.0 ? 1 : 0;
    }
    offsets[u + 1] = out;
  }
  neighbors.resize(out);
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph GraphKernels::WeightsClampedAbove(const Graph& gd, double cap) {
  DCS_CHECK(cap > 0.0) << "clamp cap must be positive, got " << cap;
  Graph out = gd;
  ClampAosWeights(out.neighbors_.data(), out.neighbors_.size(), cap);
  return out;
}

}  // namespace dcs
