#include "densest/peel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace dcs {

namespace {

// Indexed 4-ary min-heap over the vertices of one peel. Keys compare as
// (current weighted degree, vertex id), a total order, so the root is the
// minimum-degree vertex with the lowest id — the victim Algorithm 1 names.
// A 4-ary heap is shallow and its sifts stop early: most updates lower a key
// by a little.
class PeelHeap {
 public:
  // `values` must be non-empty.
  explicit PeelHeap(std::vector<double> values)
      : value_(std::move(values)), pos_(value_.size()), heap_(value_.size()) {
    const size_t n = heap_.size();
    for (size_t i = 0; i < n; ++i) {
      heap_[i] = static_cast<VertexId>(i);
      pos_[i] = static_cast<VertexId>(i);
    }
    // Floyd's build: sift down every inner node, the last one first.
    for (size_t i = (n - 1) / kArity + 1; i-- > 0;) SiftDown(i);
  }

  VertexId Top() const { return heap_.front(); }
  double Value(VertexId v) const { return value_[v]; }
  bool Contains(VertexId v) const { return pos_[v] != kGone; }

  // Removes the root and marks it gone.
  void Pop() {
    const VertexId top = heap_.front();
    const VertexId last = heap_.back();
    heap_.pop_back();
    pos_[top] = kGone;
    if (last == top) return;
    heap_[0] = last;
    pos_[last] = 0;
    SiftDown(0);
  }

  // value[v] += delta for a vertex still in the heap.
  void Add(VertexId v, double delta) {
    value_[v] += delta;
    if (delta < 0.0) {
      SiftUp(pos_[v]);
    } else {
      SiftDown(pos_[v]);
    }
  }

 private:
  static constexpr size_t kArity = 4;
  static constexpr VertexId kGone = std::numeric_limits<VertexId>::max();

  bool Less(VertexId a, VertexId b) const {
    return value_[a] < value_[b] || (value_[a] == value_[b] && a < b);
  }

  void Place(size_t i, VertexId v) {
    heap_[i] = v;
    pos_[v] = static_cast<VertexId>(i);
  }

  void SiftUp(size_t i) {
    const VertexId v = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Less(v, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, v);
  }

  void SiftDown(size_t i) {
    const VertexId v = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = kArity * i + 1;
      if (first >= n) break;
      const size_t end = std::min(first + kArity, n);
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Less(heap_[c], heap_[best])) best = c;
      }
      if (!Less(heap_[best], v)) break;
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, v);
  }

  std::vector<double> value_;  // current weighted degree, by vertex
  std::vector<VertexId> pos_;  // heap slot of each vertex, kGone once popped
  std::vector<VertexId> heap_;
};

}  // namespace

PeelResult GreedyPeel(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  PeelResult result;
  if (n == 0) return result;

  std::vector<double> degrees(n);
  double total_degree = 0.0;  // W(S) for the current S
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = graph.WeightedDegree(v);
    total_degree += degrees[v];
  }
  PeelHeap heap(std::move(degrees));

  // Best prefix: after removing the first `t` vertices of peel_order the
  // density is density_after[t]; t = 0 is the full vertex set.
  double best_density = total_degree / static_cast<double>(n);
  size_t best_removed = 0;

  result.peel_order.reserve(n);
  for (VertexId remaining = n; remaining > 1; --remaining) {
    const VertexId victim = heap.Top();
    // Removing `victim` subtracts its current induced degree from every
    // neighbor and removes it twice over from W(S) (its row and its column).
    total_degree -= 2.0 * heap.Value(victim);
    heap.Pop();
    result.peel_order.push_back(victim);
    for (const Neighbor& nb : graph.NeighborsOf(victim)) {
      if (heap.Contains(nb.to)) heap.Add(nb.to, -nb.weight);
    }
    const double density =
        total_degree / static_cast<double>(remaining - 1);
    if (density > best_density) {
      best_density = density;
      best_removed = result.peel_order.size();
    }
  }
  // Complete the peel order for callers that want the full permutation.
  result.peel_order.push_back(heap.Top());
  DCS_CHECK(result.peel_order.size() == n);

  result.density = best_density;
  std::vector<char> in_best(n, 1);
  for (size_t t = 0; t < best_removed; ++t) in_best[result.peel_order[t]] = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (in_best[v]) result.subset.push_back(v);
  }
  return result;
}

}  // namespace dcs
