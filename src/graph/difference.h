// Difference-graph construction (§III-B, §III-D of the paper).
//
// Given G1 and G2 on the same vertex set, the difference graph is
// GD = <V, ED, D> with D = A2 − α·A1 (α = 1 is the standard DCS setting);
// ED keeps only pairs with D(u,v) != 0. Both "Weighted" and "Discrete"
// settings of §VI are supported: the Discrete setting maps raw weight
// differences to small integer levels to keep a few very heavy edges from
// dominating the contrast subgraph.

#ifndef DCS_GRAPH_DIFFERENCE_H_
#define DCS_GRAPH_DIFFERENCE_H_

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// \brief D = A2 − alpha * A1, dropping entries with |d| <= kDefaultZeroEps
/// (exact cancellations and the rounding residues of non-integral ones).
///
/// Fails if the graphs have different vertex counts, alpha is not finite
/// and positive, or some d overflows to a non-finite value.
Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                   double alpha = 1.0);

/// \brief Thresholds of the paper's Discrete setting (§VI-B, DBLP values by
/// default): raw difference d maps to
///   d >= strong_pos          -> +2
///   weak_pos <= d < strong_pos -> +1
///   strong_neg < d < 0       -> -1
///   d <= strong_neg          -> -2
///   0 <= d < weak_pos        ->  0 (edge dropped)
struct DiscretizeSpec {
  double strong_pos = 5.0;
  double weak_pos = 2.0;
  double strong_neg = -4.0;

  /// Discrete output levels; the paper uses +/-2 and +/-1.
  double level_two = 2.0;
  double level_one = 1.0;

  /// Validates threshold ordering (strong_neg < 0 < weak_pos <= strong_pos,
  /// 0 < level_one <= level_two).
  Status Validate() const;

  /// Applies the mapping to a single raw difference.
  double Map(double d) const;

  friend bool operator==(const DiscretizeSpec&,
                         const DiscretizeSpec&) = default;
};

/// \brief Applies a DiscretizeSpec to every edge weight of `gd`, dropping
/// edges that map to zero (or to a level at most kDefaultZeroEps).
Result<Graph> DiscretizeWeights(const Graph& gd, const DiscretizeSpec& spec);

/// \brief The largest α for which the α-scaled DCS problems have a positive
/// optimum.
///
/// By §III-B the optimal density/affinity contrast on D = A2 − α·A1 is
/// positive iff D has a positive entry, i.e. iff α < max over pairs of
/// A2(u,v)/A1(u,v). Returns +infinity when some edge of G2 is absent from
/// G1 (that pair stays positive for every α), and 0 when G2 has no edges.
/// Fails on mismatched vertex sets.
Result<double> AlphaUpperBound(const Graph& g1, const Graph& g2);

}  // namespace dcs

#endif  // DCS_GRAPH_DIFFERENCE_H_
