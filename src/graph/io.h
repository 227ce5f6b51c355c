// Graph serialization: simple edge-list text format, DIMACS, and DOT
// export (for visualizing recursion trees and MIS results).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "graph/graph.h"

namespace slumber::io {

/// Writes "n m" on the first line, then one "u v" pair per line.
void write_edge_list(std::ostream& out, const Graph& g);

/// Parses the edge-list format written by write_edge_list. Throws
/// std::runtime_error on malformed input, including a vertex count
/// past the VertexId range and an endpoint outside [0, n).
Graph read_edge_list(std::istream& in);

/// DIMACS format: "p edge n m" header, "e u v" lines, 1-based vertices.
void write_dimacs(std::ostream& out, const Graph& g);

/// Parses DIMACS ("c" comment lines allowed). Throws std::runtime_error
/// on malformed input, with the same range checks as read_edge_list.
Graph read_dimacs(std::istream& in);

/// Graphviz DOT export. Vertices listed in `highlight` (e.g. an MIS) are
/// rendered filled.
void write_dot(std::ostream& out, const Graph& g,
               std::span<const VertexId> highlight = {});

/// Round-trips a graph through a string (edge-list format).
std::string to_string(const Graph& g);
Graph from_string(const std::string& text);

}  // namespace slumber::io
