#pragma once

/// \file dag_io.h
/// Plain-text serialisation of task graphs, so examples and the `dag_tool`
/// CLI can load graphs from files.  Format (one directive per line, `#`
/// comments):
///
///     # nodes first, then edges
///     node <label> <wcet> [host|offload|offload:<device>|sync]
///     edge <from-label> <to-label>
///
/// Labels are arbitrary whitespace-free strings and must be unique.  A bare
/// `offload` places the node on accelerator device 1 (the paper's single
/// accelerator); `offload:<d>` names device d >= 1 of a heterogeneous
/// platform.  Device 1 is written back without the suffix, so single-device
/// files round-trip byte-identically.

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/dag.h"

namespace hedra::graph {

/// Caps on one parsed graph.  Far beyond anything the analyses handle in
/// reasonable time, but small enough that hostile input (a generated file
/// declaring 10^9 nodes) fails with a named line instead of exhausting
/// memory.
inline constexpr std::size_t kMaxParsedNodes = 1u << 16;  // 65536
inline constexpr std::size_t kMaxParsedEdges = 1u << 20;  // ~1M

/// Serialises the graph; round-trips through read_dag_text.
[[nodiscard]] std::string write_dag_text(const Dag& dag);

/// Parses the textual format.  Throws hedra::Error with a line number on
/// malformed input (unknown directive, duplicate label, unknown endpoint,
/// node/edge counts beyond kMaxParsedNodes/kMaxParsedEdges, an edge list
/// with a cycle — named by the line of the edge that closes it...).  Never
/// exhibits UB on arbitrary bytes: every failure is a typed Error.
[[nodiscard]] Dag read_dag_text(std::string_view text);

/// File convenience wrappers.
void save_dag_file(const Dag& dag, const std::string& path);
[[nodiscard]] Dag load_dag_file(const std::string& path);

}  // namespace hedra::graph
