// Flat binary (de)serialization of the immutable CSR Graph.
//
// The persistent artifact store (store/artifact_store.h) writes the graphs
// of a prepared pipeline — the difference graph and GD+ — inside its
// checksummed pipeline records. A Graph is already trivially flat (an
// offsets array and a neighbor array), so the encoding is a direct dump of
// the CSR arrays:
//
//   u32 num_vertices
//   u64 num_neighbor_halves           (2m)
//   u64 offsets[num_vertices + 1]
//   { u32 to, u64 weight_bits } * num_neighbor_halves
//
// Weights travel as exact IEEE-754 bit patterns, so a round trip is
// bit-identical — the precondition for the store's determinism contract
// (a store-warmed solve must equal a cold-built one bit for bit). All
// integers are little-endian on every platform the store supports; the
// store's superblock carries an endianness tag so a file from a
// foreign-endian machine is rejected up front rather than mis-parsed.
//
// Parsing never trusts the bytes: structural invariants (offset monotonicity,
// in-range neighbor ids, finite non-zero weights, CSR symmetry via the
// paired reverse-half check) are validated before a Graph is materialized,
// so even a payload that passes the page checksum cannot construct a graph
// that breaks the Graph class invariants.

#ifndef DCS_GRAPH_SERIALIZE_H_
#define DCS_GRAPH_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// \brief Appends the flat encoding of `graph` to `out`.
void AppendGraphBytes(const Graph& graph, std::string* out);

/// \brief Parses one graph from `bytes` starting at `*cursor`, advancing
/// `*cursor` past it.
///
/// Fails with InvalidArgument on a truncated buffer or on any violated
/// Graph invariant (non-monotone offsets, out-of-range ids, unsorted or
/// duplicate adjacency, asymmetric halves, non-finite or zero weights). On
/// failure `*cursor` is unspecified and no Graph is produced.
Result<Graph> ParseGraphBytes(std::span<const uint8_t> bytes, size_t* cursor);

}  // namespace dcs

#endif  // DCS_GRAPH_SERIALIZE_H_
