#include "core/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

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

}  // namespace dcs
